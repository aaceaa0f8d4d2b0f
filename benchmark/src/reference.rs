//! Independent reference scorer: a plain f64 re-implementation of the
//! interaction tower (user ⊕ POI embedding → ReLU MLP → sigmoid) over
//! parameters read from a checkpoint. The benchmark checks served scores
//! and computes exact full-catalog rankings with it, apart from every
//! scoring path of the program.

use st_tensor::ParamStore;
use std::collections::BTreeMap;
use std::path::Path;

/// Agreement the benchmark requires between a served f32 score and the
/// f64 reference for the same pair. The f32 tower accumulates rounding
/// over a few dozen products per layer; scores are in (0, 1).
pub const SCORE_TOLERANCE: f64 = 1e-5;

struct Layer {
    inputs: usize,
    outputs: usize,
    /// Row-major `inputs x outputs`, as the program stores it.
    w: Vec<f64>,
    b: Vec<f64>,
}

/// The tower and both embedding tables, widened to f64.
pub struct ReferenceScorer {
    dim: usize,
    user: Vec<f64>,
    poi: Vec<f64>,
    layers: Vec<Layer>,
}

fn widen(values: &[f32]) -> Vec<f64> {
    values.iter().map(|&v| f64::from(v)).collect()
}

impl ReferenceScorer {
    /// Reads the parameters of the checkpoint at `path` (every checksum
    /// verified).
    pub fn from_checkpoint(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(std::io::BufReader::new(file))
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
    }

    /// Reads checkpoint bytes from `input`.
    pub fn from_reader(input: impl std::io::Read) -> std::io::Result<Self> {
        let store =
            st_tensor::load_params(input).map_err(|e| std::io::Error::other(e.to_string()))?;
        Self::from_store(&store)
    }

    /// Builds the scorer from named parameters: `user_emb`, `poi_emb`,
    /// and `tower.{i}.w` / `tower.{i}.b` for each tower layer.
    pub fn from_store(store: &ParamStore) -> std::io::Result<Self> {
        let mut by_name = BTreeMap::new();
        for (_, name, m) in store.iter() {
            by_name.insert(name.to_string(), m);
        }
        let missing = |n: &str| std::io::Error::other(format!("checkpoint has no {n}"));
        let user = by_name.get("user_emb").ok_or_else(|| missing("user_emb"))?;
        let poi = by_name.get("poi_emb").ok_or_else(|| missing("poi_emb"))?;
        let dim = user.cols();
        let mut layers = Vec::new();
        while let Some(w) = by_name.get(&format!("tower.{}.w", layers.len())) {
            let bias_name = format!("tower.{}.b", layers.len());
            let b = by_name.get(&bias_name).ok_or_else(|| missing(&bias_name))?;
            layers.push(Layer {
                inputs: w.rows(),
                outputs: w.cols(),
                w: widen(w.as_slice()),
                b: widen(b.as_slice()),
            });
        }
        let first = layers.first().ok_or_else(|| missing("tower.0.w"))?;
        if first.inputs != 2 * dim || poi.cols() != dim {
            return Err(std::io::Error::other(
                "tower input does not match embeddings",
            ));
        }
        Ok(Self {
            dim,
            user: widen(user.as_slice()),
            poi: widen(poi.as_slice()),
            layers,
        })
    }

    /// Users in the user table.
    pub fn num_users(&self) -> usize {
        self.user.len() / self.dim
    }

    /// POIs in the POI table.
    pub fn num_pois(&self) -> usize {
        self.poi.len() / self.dim
    }

    /// Predicted visit probability of `poi` for `user`.
    ///
    /// # Panics
    /// Panics if either id is outside its table.
    pub fn score(&self, user: usize, poi: usize) -> f64 {
        let d = self.dim;
        let mut x: Vec<f64> = Vec::with_capacity(2 * d);
        x.extend_from_slice(&self.user[user * d..(user + 1) * d]);
        x.extend_from_slice(&self.poi[poi * d..(poi + 1) * d]);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.b.clone();
            for (r, &xr) in x.iter().enumerate().take(layer.inputs) {
                let row = &layer.w[r * layer.outputs..(r + 1) * layer.outputs];
                for (o, &w) in y.iter_mut().zip(row) {
                    *o += xr * w;
                }
            }
            if i != last {
                for v in &mut y {
                    *v = v.max(0.0);
                }
            }
            x = y;
        }
        1.0 / (1.0 + (-x[0]).exp())
    }

    /// The `k` highest-scoring of `pois` for `user`, best first (ties by
    /// ascending id, as the program ranks).
    pub fn top_k(&self, user: usize, pois: &[usize], k: usize) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> =
            pois.iter().map(|&p| (self.score(user, p), p)).collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::{synth, CityId, CrossingCitySplit};
    use st_transrec_core::{ModelConfig, STTransRec};

    #[test]
    fn agrees_with_the_tape_oracle_on_a_tiny_model() {
        let cfg = synth::SynthConfig::tiny();
        let (dataset, _) = synth::generate(&cfg);
        let split = CrossingCitySplit::build(&dataset, CityId(cfg.target_city as u16));
        let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
        for _ in 0..20 {
            model.train_step(&dataset);
        }
        let mut checkpoint = Vec::new();
        st_tensor::save_params_v2(
            model.params(),
            st_tensor::StorageEncoding::F32,
            &mut checkpoint,
        )
        .unwrap();
        let reference = ReferenceScorer::from_reader(checkpoint.as_slice()).unwrap();

        assert_eq!(reference.num_users(), dataset.num_users());
        assert_eq!(reference.num_pois(), dataset.num_pois());
        let users: Vec<usize> = (0..dataset.num_users()).step_by(3).collect();
        let pois: Vec<usize> = users.iter().map(|u| (u * 7) % dataset.num_pois()).collect();
        let tape = model.predict_tape(&users, &pois);
        let mut worst = 0.0f64;
        for ((&u, &p), &t) in users.iter().zip(&pois).zip(&tape) {
            worst = worst.max((reference.score(u, p) - f64::from(t)).abs());
        }
        assert!(worst < SCORE_TOLERANCE, "worst disagreement {worst}");
        // The reference is not a copy of the oracle's arithmetic: it
        // differs from the f32 result by rounding, not by nothing.
        assert!(worst > 0.0);
    }

    #[test]
    fn top_k_ranks_best_first_with_id_ties() {
        let mut store = ParamStore::new();
        let m = |r, c, v: Vec<f32>| st_tensor::Matrix::from_vec(r, c, v);
        store.register_value("user_emb", m(1, 1, vec![1.0]));
        store.register_value("poi_emb", m(3, 1, vec![0.5, 2.0, 0.5]));
        store.register_value("tower.0.w", m(2, 1, vec![0.0, 1.0]));
        store.register_value("tower.0.b", m(1, 1, vec![0.0]));
        let r = ReferenceScorer::from_store(&store).unwrap();
        assert_eq!(r.top_k(0, &[0, 1, 2], 3), vec![1, 0, 2]);
        assert!((r.score(0, 1) - 1.0 / (1.0 + (-2.0f64).exp())).abs() < 1e-15);
    }
}
