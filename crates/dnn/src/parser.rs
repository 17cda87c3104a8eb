//! A prototxt-like text format for network definitions.
//!
//! DjiNN's flexibility claim — "supporting more applications simply
//! requires providing a pretrained neural network model" — needs a
//! configuration format that can describe a network without recompiling.
//! The grammar is line-oriented:
//!
//! ```text
//! name: tiny
//! input: 1 28 28          # channels height width (or a single feature dim)
//! layer conv1 conv out=10 kernel=5 stride=1 pad=0 groups=1
//! layer pool1 maxpool kernel=2 stride=2
//! layer ip1 fc out=10
//! layer act1 relu
//! layer prob softmax
//! ```
//!
//! `#` starts a comment; blank lines are ignored.

use std::collections::HashMap;

use tensor::{Conv2dParams, LrnParams, Pool2dParams, Shape};

use crate::{ActivationKind, DnnError, LayerDef, LayerSpec, LocalParams, NetDef, PoolKind, Result};

/// Parses a network definition from its text form.
///
/// # Errors
///
/// Returns [`DnnError::Parse`] with a 1-based line number for any syntax
/// error, and network-validation errors for semantic ones.
///
/// ```
/// let def = dnn::parser::parse_netdef("
///     name: mini
///     input: 4
///     layer fc1 fc out=2
///     layer prob softmax
/// ")?;
/// assert_eq!(def.depth(), 2);
/// # Ok::<(), dnn::DnnError>(())
/// ```
pub fn parse_netdef(text: &str) -> Result<NetDef> {
    let mut name: Option<String> = None;
    let mut input: Option<Shape> = None;
    let mut layers: Vec<LayerDef> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |reason: String| DnnError::Parse {
            line: lineno,
            reason,
        };
        if let Some(rest) = line.strip_prefix("name:") {
            name = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("input:") {
            let dims: Vec<usize> = rest
                .split_whitespace()
                .map(|t| t.parse::<usize>())
                .collect::<std::result::Result<_, _>>()
                .map_err(|e| err(format!("bad input dims: {e}")))?;
            if !matches!(dims.len(), 1 | 3) {
                return Err(err(format!(
                    "input expects 1 (features) or 3 (c h w) dims, got {}",
                    dims.len()
                )));
            }
            let shape = Shape::new(&[&[1], &dims[..]].concat())
                .map_err(|_| err(format!("input dims {dims:?} must be non-zero")))?;
            input = Some(shape);
        } else if let Some(rest) = line.strip_prefix("layer ") {
            layers.push(parse_layer(rest, lineno)?);
        } else {
            return Err(err(format!("unrecognized directive `{line}`")));
        }
    }

    let name = name.ok_or(DnnError::Parse {
        line: 0,
        reason: "missing `name:` directive".into(),
    })?;
    let input = input.ok_or(DnnError::Parse {
        line: 0,
        reason: "missing `input:` directive".into(),
    })?;
    NetDef::new(name, input, layers)
}

fn parse_layer(rest: &str, lineno: usize) -> Result<LayerDef> {
    let err = |reason: String| DnnError::Parse {
        line: lineno,
        reason,
    };
    let mut tokens = rest.split_whitespace();
    let lname = tokens
        .next()
        .ok_or_else(|| err("layer needs a name".into()))?;
    let kind = tokens
        .next()
        .ok_or_else(|| err(format!("layer `{lname}` needs a kind")))?;
    let mut kv: HashMap<&str, usize> = HashMap::new();
    for tok in tokens {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| err(format!("expected key=value, got `{tok}`")))?;
        let v = v
            .parse::<usize>()
            .map_err(|e| err(format!("bad value for `{k}`: {e}")))?;
        kv.insert(k, v);
    }
    let get = |k: &str| -> Result<usize> {
        kv.get(k)
            .copied()
            .ok_or_else(|| err(format!("layer `{lname}` ({kind}) missing `{k}=`")))
    };
    let opt = |k: &str, default: usize| kv.get(k).copied().unwrap_or(default);

    let spec = match kind {
        "conv" => LayerSpec::Conv(Conv2dParams {
            out_channels: get("out")?,
            kernel: get("kernel")?,
            stride: opt("stride", 1),
            pad: opt("pad", 0),
            groups: opt("groups", 1),
        }),
        "local" => LayerSpec::Local(LocalParams {
            out_channels: get("out")?,
            kernel: get("kernel")?,
            stride: opt("stride", 1),
            pad: opt("pad", 0),
        }),
        "maxpool" | "avgpool" => {
            let p = Pool2dParams::new(get("kernel")?, opt("stride", 1), opt("pad", 0));
            let kind = if kind == "maxpool" {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            LayerSpec::Pool(kind, p)
        }
        "fc" => LayerSpec::InnerProduct { out: get("out")? },
        "relu" => LayerSpec::Activation(ActivationKind::Relu),
        "tanh" => LayerSpec::Activation(ActivationKind::Tanh),
        "sigmoid" => LayerSpec::Activation(ActivationKind::Sigmoid),
        "hardtanh" => LayerSpec::Activation(ActivationKind::HardTanh),
        "lrn" => LayerSpec::Lrn(LrnParams {
            local_size: opt("size", 5),
            ..LrnParams::default()
        }),
        "dropout" => LayerSpec::Dropout,
        "softmax" => LayerSpec::Softmax,
        other => return Err(err(format!("unknown layer kind `{other}`"))),
    };
    Ok(LayerDef {
        name: lname.to_string(),
        spec,
    })
}

/// Renders a definition back to the text format; `parse_netdef` of the
/// output reproduces the definition (round-trip property, tested).
pub fn render_netdef(def: &NetDef) -> String {
    let mut out = String::new();
    out.push_str(&format!("name: {}\n", def.name()));
    let dims = def.input_shape().dims();
    match dims {
        [_, f] => out.push_str(&format!("input: {f}\n")),
        [_, c, h, w] => out.push_str(&format!("input: {c} {h} {w}\n")),
        _ => out.push_str("input: 1\n"),
    }
    for l in def.layers() {
        out.push_str(&format!("layer {} {}", l.name, l.spec.kind_name()));
        match &l.spec {
            LayerSpec::Conv(p) => out.push_str(&format!(
                " out={} kernel={} stride={} pad={} groups={}",
                p.out_channels, p.kernel, p.stride, p.pad, p.groups
            )),
            LayerSpec::Local(p) => out.push_str(&format!(
                " out={} kernel={} stride={} pad={}",
                p.out_channels, p.kernel, p.stride, p.pad
            )),
            LayerSpec::Pool(_, p) => out.push_str(&format!(
                " kernel={} stride={} pad={}",
                p.kernel, p.stride, p.pad
            )),
            LayerSpec::InnerProduct { out: o } => out.push_str(&format!(" out={o}")),
            LayerSpec::Lrn(p) => out.push_str(&format!(" size={}", p.local_size)),
            _ => {}
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn parses_minimal_network() {
        let def =
            parse_netdef("name: mini\ninput: 8\nlayer fc1 fc out=4\nlayer prob softmax\n").unwrap();
        assert_eq!(def.name(), "mini");
        assert_eq!(def.depth(), 2);
        assert_eq!(def.output_shape(1).unwrap().dims(), &[1, 4]);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let def =
            parse_netdef("# a tagger\nname: t\n\ninput: 4  # features\nlayer fc fc out=2 # out\n")
                .unwrap();
        assert_eq!(def.depth(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_netdef("name: x\ninput: 4\nlayer a wat\n").unwrap_err();
        match e {
            DnnError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn missing_required_key_is_reported() {
        let e = parse_netdef("name: x\ninput: 4\nlayer a fc\n").unwrap_err();
        assert!(matches!(e, DnnError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn missing_directives_are_reported() {
        assert!(parse_netdef("input: 4\nlayer a fc out=1\n").is_err());
        assert!(parse_netdef("name: x\nlayer a fc out=1\n").is_err());
    }

    /// A zero dimension is an error — a parse error on the `input:` line,
    /// a bad layer for a layer's output count — not a panic in the shape
    /// it would have built.
    #[test]
    fn zero_dimensions_are_errors_not_panics() {
        let net = |input: &str, layer: &str| format!("name: x\ninput: {input}\nlayer {layer}\n");
        for (text, parse_line) in [
            (net("1 8 8", "c conv out=0 kernel=3"), None),
            (net("1 8 8", "c local out=0 kernel=3"), None),
            (net("0 8 8", "c conv out=2 kernel=3"), Some(2)),
            (net("1 0 8", "c conv out=2 kernel=3"), Some(2)),
            (net("0", "f fc out=2"), Some(2)),
        ] {
            match (parse_netdef(&text), parse_line) {
                (Err(DnnError::Parse { line, .. }), Some(want)) => assert_eq!(line, want, "{text}"),
                (Err(DnnError::BadLayer { .. }), None) => {}
                (other, _) => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn zoo_networks_roundtrip() {
        for app in zoo::App::ALL {
            let def = zoo::netdef(app);
            let text = render_netdef(&def);
            let reparsed = parse_netdef(&text).unwrap();
            assert_eq!(reparsed, def, "{app} failed text round-trip");
        }
    }
}
