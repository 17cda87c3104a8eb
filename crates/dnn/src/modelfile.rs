//! Binary model files: how pretrained networks are stored on disk and
//! loaded by a DjiNN service at initialization.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "DJNM" | version u8 | def_len u32 | netdef text (parser format)
//! | per parameterized layer: weight f32s, then bias f32s
//! ```
//!
//! The definition travels in the human-readable [`crate::parser`] format,
//! so a model file is self-describing: `head -c 400 model.djnm` shows the
//! architecture.

use std::io::{Read, Write};

use tensor::Tensor;

use crate::weights::param_shapes;
use crate::{DnnError, LayerWeights, Network, Result};

/// File magic.
pub const MAGIC: &[u8; 4] = b"DJNM";
/// Format version written by this implementation.
pub const VERSION: u8 = 1;
/// Upper bound on the embedded definition text.
const MAX_DEF_LEN: usize = 1 << 20;

fn io_err(e: std::io::Error) -> DnnError {
    DnnError::BadNetwork {
        reason: format!("model file i/o: {e}"),
    }
}

/// Writes a network to a model file. The writer may be `&mut`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save<W: Write>(network: &Network, mut w: W) -> Result<()> {
    let def_text = crate::parser::render_netdef(network.def());
    w.write_all(MAGIC).map_err(io_err)?;
    w.write_all(&[VERSION]).map_err(io_err)?;
    w.write_all(&(def_text.len() as u32).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(def_text.as_bytes()).map_err(io_err)?;
    for lw in network.weights() {
        if lw.is_none() {
            continue;
        }
        for &v in lw.weights().data() {
            w.write_all(&v.to_le_bytes()).map_err(io_err)?;
        }
        for &v in lw.bias() {
            w.write_all(&v.to_le_bytes()).map_err(io_err)?;
        }
    }
    w.flush().map_err(io_err)
}

/// Reads a network from a model file. The reader may be `&mut`.
///
/// # Errors
///
/// Returns [`DnnError::BadNetwork`] for bad magic/version/lengths and
/// parse errors for a corrupt embedded definition.
pub fn load<R: Read>(mut r: R) -> Result<Network> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(DnnError::BadNetwork {
            reason: "not a DjiNN model file (bad magic)".into(),
        });
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version).map_err(io_err)?;
    if version[0] != VERSION {
        return Err(DnnError::BadNetwork {
            reason: format!("unsupported model file version {}", version[0]),
        });
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(io_err)?;
    let def_len = u32::from_le_bytes(len_bytes) as usize;
    if def_len > MAX_DEF_LEN {
        return Err(DnnError::BadNetwork {
            reason: format!("definition length {def_len} exceeds cap"),
        });
    }
    let mut def_bytes = vec![0u8; def_len];
    r.read_exact(&mut def_bytes).map_err(io_err)?;
    let def_text = String::from_utf8(def_bytes).map_err(|_| DnnError::BadNetwork {
        reason: "definition is not utf-8".into(),
    })?;
    let def = crate::parser::parse_netdef(&def_text)?;

    let shapes = def.layer_shapes(1)?;
    let mut weights = Vec::with_capacity(def.layers().len());
    let mut f32_buf = Vec::new();
    for (l, s) in def.layers().iter().zip(&shapes) {
        let Some((wshape, blen, _)) = param_shapes(&l.spec, s) else {
            weights.push(LayerWeights::none());
            continue;
        };
        let wlen = wshape.volume();
        f32_buf.clear();
        f32_buf.resize((wlen + blen) * 4, 0u8);
        r.read_exact(&mut f32_buf).map_err(io_err)?;
        let mut values = f32_buf
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        let wdata: Vec<f32> = values.by_ref().take(wlen).collect();
        let bias: Vec<f32> = values.collect();
        weights.push(LayerWeights::from_parts(
            Tensor::from_vec(wshape, wdata)?,
            bias,
        ));
    }
    // Reject trailing garbage.
    let mut extra = [0u8; 1];
    if r.read(&mut extra).map_err(io_err)? != 0 {
        return Err(DnnError::BadNetwork {
            reason: "trailing bytes after model weights".into(),
        });
    }
    Network::with_weights(def, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{self, App};
    use tensor::Shape;

    #[test]
    fn roundtrip_preserves_network_exactly() {
        for app in [App::Dig, App::Pos] {
            let net = zoo::network(app).unwrap();
            let mut buf = Vec::new();
            save(&net, &mut buf).unwrap();
            let loaded = load(&buf[..]).unwrap();
            assert_eq!(loaded, net, "{app}");
        }
    }

    #[test]
    fn loaded_model_predicts_identically() {
        let net = zoo::network(App::Dig).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let loaded = load(&buf[..]).unwrap();
        let input = Tensor::random_uniform(Shape::nchw(2, 1, 28, 28), 1.0, 3);
        assert_eq!(
            net.forward(&input).unwrap(),
            loaded.forward(&input).unwrap()
        );
    }

    /// The file holds weights, not the finiteness flag: `load` finds it
    /// again from what it reads. An infinity written into the first
    /// layer of `pos` comes back as non-finite weights there (so its
    /// inner product stays dense, and a one-hot row still meets
    /// `0 * inf`), and every other layer as finite.
    #[test]
    fn finiteness_is_recomputed_on_load() {
        let net = zoo::network(App::Pos).unwrap();
        let mut weights = net.weights().to_vec();
        weights[0].set_weight_for_test(100 * 450 + 3, f32::INFINITY);
        let net = Network::with_weights(net.def().clone(), weights).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let loaded = load(&buf[..]).unwrap();
        let finite: Vec<bool> = loaded.weights().iter().map(|w| w.is_finite()).collect();
        assert_eq!(finite, [false, true, true]);
        let mut hot = vec![0.0f32; 350];
        hot[9] = 1.0;
        let hot = Tensor::from_vec(Shape::mat(1, 350), hot).unwrap();
        let l1 = &loaded.forward_all(&hot).unwrap()[0];
        assert!(l1.data()[3].is_nan(), "0 * inf");
        assert_eq!(l1.data().iter().filter(|v| v.is_nan()).count(), 1);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let net = zoo::network(App::Pos).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(load(&bad_magic[..]).is_err());

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(load(&bad_version[..]).is_err());

        for cut in [5usize, 12, buf.len() / 2, buf.len() - 1] {
            assert!(load(&buf[..cut]).is_err(), "prefix {cut} loaded");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let net = zoo::network(App::Pos).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        buf.push(0xFF);
        assert!(load(&buf[..]).is_err());
    }

    #[test]
    fn file_is_self_describing() {
        let net = zoo::network(App::Pos).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let head = String::from_utf8_lossy(&buf[9..120]);
        assert!(head.contains("name: senna-pos"), "{head}");
        assert!(head.contains("layer l1 fc out=450"), "{head}");
    }
}
