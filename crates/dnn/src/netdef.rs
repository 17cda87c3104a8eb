//! Declarative network descriptions with whole-network shape validation.

use tensor::Shape;

use crate::{DnnError, LayerSpec, Result};

/// A named layer within a network definition.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDef {
    /// Unique layer name (e.g. `conv1`).
    pub name: String,
    /// The layer's specification.
    pub spec: LayerSpec,
}

/// A complete network description: an input shape (with batch size 1) and
/// an ordered list of layers. `NetDef` is pure configuration; pair it with
/// weights via [`crate::Network`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetDef {
    name: String,
    input_shape: Shape,
    layers: Vec<LayerDef>,
}

impl NetDef {
    /// Builds and validates a network definition.
    ///
    /// Validation runs full shape inference front to back, so any geometry
    /// error surfaces at load time rather than at the first query — the
    /// same property DjiNN gets from loading models once at initialization.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadNetwork`] for an empty layer list, a non-unit
    /// input batch, or duplicate layer names; propagates per-layer shape
    /// errors.
    pub fn new(name: impl Into<String>, input_shape: Shape, layers: Vec<LayerDef>) -> Result<Self> {
        let name = name.into();
        if layers.is_empty() {
            return Err(DnnError::BadNetwork {
                reason: format!("network `{name}` has no layers"),
            });
        }
        if input_shape.batch() != 1 {
            return Err(DnnError::BadNetwork {
                reason: format!(
                    "input shape {input_shape} must describe a single item (batch 1); \
                     batching is applied at query time"
                ),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for l in &layers {
            if !seen.insert(l.name.as_str()) {
                return Err(DnnError::BadNetwork {
                    reason: format!("duplicate layer name `{}`", l.name),
                });
            }
        }
        let def = NetDef {
            name,
            input_shape,
            layers,
        };
        def.layer_shapes(1)?; // validate geometry end to end
        Ok(def)
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-item input shape (batch axis is 1).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The ordered layers.
    pub fn layers(&self) -> &[LayerDef] {
        &self.layers
    }

    /// Number of layers (the paper's Table 1 "Layers" column).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Shape flowing *into* each layer, then the final output shape, for a
    /// given batch size. `result[i]` is layer `i`'s input; `result[depth()]`
    /// is the network output.
    ///
    /// # Errors
    ///
    /// Propagates per-layer shape inference failures.
    pub fn layer_shapes(&self, batch: usize) -> Result<Vec<Shape>> {
        let mut shapes = Vec::with_capacity(self.layers.len() + 1);
        let mut cur = self.input_shape.with_batch(batch);
        for l in &self.layers {
            shapes.push(cur.clone());
            cur = l.spec.output_shape(&cur).map_err(|e| match e {
                DnnError::BadLayer { reason, .. } => DnnError::BadLayer {
                    layer: l.name.clone(),
                    reason,
                },
                other => other,
            })?;
        }
        shapes.push(cur);
        Ok(shapes)
    }

    /// Output shape for a given batch size.
    ///
    /// # Errors
    ///
    /// Propagates shape inference failures.
    pub fn output_shape(&self, batch: usize) -> Result<Shape> {
        Ok(self
            .layer_shapes(batch)?
            .last()
            .expect("layer_shapes is never empty")
            .clone())
    }

    /// Total learned parameters (the paper's Table 1 "Parameters" column).
    pub fn param_count(&self) -> usize {
        let shapes = self
            .layer_shapes(1)
            .expect("validated at construction time");
        self.layers
            .iter()
            .zip(&shapes)
            .map(|(l, s)| l.spec.param_count(s))
            .sum()
    }

    /// Model size in bytes (4 bytes per parameter) — what DjiNN holds
    /// in memory per registered model.
    pub fn model_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// A per-layer summary table (name, kind, output shape, parameters),
    /// torchsummary-style, for humans inspecting a model.
    pub fn summary(&self) -> String {
        let shapes = self
            .layer_shapes(1)
            .expect("validated at construction time");
        let mut out = String::new();
        out.push_str(&format!(
            "{} — input {}, {} layers, {} params ({:.1} MB)\n",
            self.name,
            self.input_shape,
            self.depth(),
            self.param_count(),
            self.model_bytes() as f64 / 1e6
        ));
        out.push_str(&format!(
            "{:<12} {:<10} {:>16} {:>12}\n",
            "layer", "kind", "output", "params"
        ));
        for (l, s_in) in self.layers.iter().zip(&shapes) {
            let s_out = l
                .spec
                .output_shape(s_in)
                .expect("validated at construction time");
            out.push_str(&format!(
                "{:<12} {:<10} {:>16} {:>12}\n",
                l.name,
                l.spec.kind_name(),
                s_out.to_string(),
                l.spec.param_count(s_in)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActivationKind;
    use tensor::{Conv2dParams, Pool2dParams};

    fn tiny() -> NetDef {
        NetDef::new(
            "tiny",
            Shape::nchw(1, 1, 8, 8),
            vec![
                LayerDef {
                    name: "conv1".into(),
                    spec: LayerSpec::Conv(Conv2dParams::new(4, 3, 1, 1)),
                },
                LayerDef {
                    name: "relu1".into(),
                    spec: LayerSpec::Activation(ActivationKind::Relu),
                },
                LayerDef {
                    name: "pool1".into(),
                    spec: LayerSpec::Pool(crate::PoolKind::Max, Pool2dParams::new(2, 2, 0)),
                },
                LayerDef {
                    name: "fc1".into(),
                    spec: LayerSpec::InnerProduct { out: 10 },
                },
                LayerDef {
                    name: "prob".into(),
                    spec: LayerSpec::Softmax,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn shape_inference_threads_through() {
        let def = tiny();
        let shapes = def.layer_shapes(2).unwrap();
        assert_eq!(shapes[0].dims(), &[2, 1, 8, 8]);
        assert_eq!(shapes[1].dims(), &[2, 4, 8, 8]); // after conv
        assert_eq!(shapes[3].dims(), &[2, 4, 4, 4]); // after pool
        assert_eq!(shapes[5].dims(), &[2, 10]); // output
        assert_eq!(def.output_shape(2).unwrap().dims(), &[2, 10]);
    }

    #[test]
    fn param_count_sums_layers() {
        let def = tiny();
        // conv: 4*1*9+4 = 40; fc: 64*10+10 = 650.
        assert_eq!(def.param_count(), 40 + 650);
        assert_eq!(def.model_bytes(), (40 + 650) * 4);
    }

    #[test]
    fn summary_lists_every_layer() {
        let text = tiny().summary();
        for name in ["conv1", "relu1", "pool1", "fc1", "prob"] {
            assert!(text.contains(name), "missing {name} in summary");
        }
        assert!(text.contains("690 params"));
    }

    #[test]
    fn rejects_duplicates_and_empties() {
        let dup = NetDef::new(
            "dup",
            Shape::mat(1, 4),
            vec![
                LayerDef {
                    name: "a".into(),
                    spec: LayerSpec::InnerProduct { out: 2 },
                },
                LayerDef {
                    name: "a".into(),
                    spec: LayerSpec::Softmax,
                },
            ],
        );
        assert!(matches!(dup, Err(DnnError::BadNetwork { .. })));
        assert!(NetDef::new("empty", Shape::mat(1, 4), vec![]).is_err());
    }

    #[test]
    fn rejects_batched_input_shape() {
        let r = NetDef::new(
            "batched",
            Shape::mat(16, 4),
            vec![LayerDef {
                name: "fc".into(),
                spec: LayerSpec::InnerProduct { out: 2 },
            }],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_geometry_errors_at_load() {
        let r = NetDef::new(
            "bad",
            Shape::nchw(1, 1, 4, 4),
            vec![LayerDef {
                name: "conv".into(),
                spec: LayerSpec::Conv(Conv2dParams::new(2, 9, 1, 0)),
            }],
        );
        assert!(matches!(r, Err(DnnError::BadLayer { .. })));
    }
}
