//! Seeded inputs of the serving and online workloads, and the fixture
//! checkpoint each is served from.
//!
//! The checkpoint is trained in a child process (this binary, re-run
//! with `--role fixture`), so the memory that training holds never
//! counts towards the serving process's peak RSS. Parent and child both
//! synthesize the dataset from the same seed, which makes them agree on
//! every id without shipping the dataset between them.

use st_data::synth::SynthConfig;
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_transrec_core::{ModelConfig, STTransRec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Which workload a fixture serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 60k POIs, 30k per city: the 4096-candidate budget covers under
    /// 14% of a city, so retrieval decides what is scored.
    LargeCatalog,
    /// 2k POIs, 1k per city: below the index's `min_catalog`, and small
    /// enough that the key working set fits the result cache.
    HotCache,
    /// 6k POIs, 3k per city: above `min_catalog`, so every publish
    /// rebuilds a retrieval index.
    Online,
}

impl Kind {
    /// Workload name the fixture belongs to.
    pub fn workload(self) -> &'static str {
        match self {
            Kind::LargeCatalog => "recommend_large_catalog",
            Kind::HotCache => "recommend_hot_cache",
            Kind::Online => "online_publish",
        }
    }

    /// Inverse of [`Kind::workload`].
    pub fn from_workload(name: &str) -> Option<Self> {
        [Kind::LargeCatalog, Kind::HotCache, Kind::Online]
            .into_iter()
            .find(|k| k.workload() == name)
    }

    /// Dataset generator settings for `seed`.
    pub fn synth(self, seed: u64) -> SynthConfig {
        let (pois, users) = match self {
            Kind::LargeCatalog => (60_000, 4_096),
            Kind::HotCache => (2_000, 512),
            Kind::Online => (6_000, 512),
        };
        let mut cfg = SynthConfig::tiny().with_seed(seed);
        cfg.pois = pois;
        cfg.users = users;
        cfg.crossing_users = users / 4;
        cfg.checkins = pois * 4;
        cfg
    }

    /// Training steps behind the fixture checkpoint. The large-catalog
    /// fixture is trained lightly on purpose: a fully trained model at
    /// this catalog size clusters so tightly that retrieval finds the
    /// exact top 10 every time, and a recall regression could not show.
    pub fn train_steps(self) -> usize {
        match self {
            Kind::LargeCatalog => 6,
            Kind::HotCache => 100,
            Kind::Online => 200,
        }
    }
}

/// Model configuration of every serving fixture.
pub fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        seed,
        ..ModelConfig::test_small()
    }
}

/// The dataset and crossing-city split of a fixture.
pub fn dataset(kind: Kind, seed: u64) -> (Dataset, CrossingCitySplit) {
    let cfg = kind.synth(seed);
    let (dataset, _) = st_data::synth::generate(&cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(cfg.target_city as u16));
    (dataset, split)
}

/// Child side: trains the fixture model and writes its checkpoint to
/// `dir/model.bin`.
pub fn build_checkpoint(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<()> {
    let (dataset, split) = dataset(kind, seed);
    let mut model = STTransRec::new(&dataset, &split, model_config(seed));
    for _ in 0..kind.train_steps() {
        model.train_step(&dataset);
    }
    st_tensor::save_params_atomic_as(
        model.params(),
        &dir.join("model.bin"),
        st_tensor::StorageEncoding::F32,
    )
}

/// Parent side: runs [`build_checkpoint`] in a child process, waits for
/// it, and returns the checkpoint path.
pub fn spawn_build(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let status = Command::new(std::env::current_exe()?)
        .args(["--role", "fixture", "--workload", kind.workload()])
        .args(["--seed", &seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "fixture build failed: {status}"
        )));
    }
    Ok(dir.join("model.bin"))
}
