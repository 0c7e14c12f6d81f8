//! Cartesian sweep grids: the paper's experiment matrices as data.
//!
//! A [`SweepGrid`] expands a base config across two axes —
//! transport/PFC variants and congestion-control schemes — into an
//! ordered batch of [`Cell`]s. Expansion order is fixed (cc → variant,
//! outermost first) so a grid always yields the same cells in the same
//! order, which is what lets reports built from grid batches render
//! identically at any job count. (Seeds fan out through
//! [`crate::Replicate`]; the one load sweep, Table 3, lists its loads.)

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::ExperimentConfig;

use crate::cell::Cell;

/// One transport/PFC pairing with its display name, e.g.
/// `("RoCE (PFC)", Roce, pfc=true)`. The paper never sweeps transport
/// and PFC independently — each compared configuration is such a pair.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display name, e.g. `"IRN"` or `"RoCE (PFC)"`.
    pub name: String,
    /// Transport preset.
    pub transport: TransportKind,
    /// Whether PFC is enabled in the fabric.
    pub pfc: bool,
}

impl Variant {
    /// Build a variant.
    pub fn new(name: impl Into<String>, transport: TransportKind, pfc: bool) -> Variant {
        Variant {
            name: name.into(),
            transport,
            pfc,
        }
    }
}

/// The figure-label suffix for a CC scheme: empty for [`CcKind::None`],
/// `" + Timely"` style otherwise (matches the paper's row labels).
pub fn cc_suffix(cc: CcKind) -> String {
    match cc {
        CcKind::None => String::new(),
        other => format!(" + {}", other.label()),
    }
}

/// A cartesian sweep over variants × cc.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    base: ExperimentConfig,
    variants: Vec<Variant>,
    ccs: Vec<CcKind>,
}

impl SweepGrid {
    /// A grid over `base`. Until axes are added, the grid is a single
    /// cell running `base` unchanged.
    pub fn new(base: ExperimentConfig) -> SweepGrid {
        SweepGrid {
            base,
            variants: Vec::new(),
            ccs: Vec::new(),
        }
    }

    /// Sweep transport/PFC variants.
    pub fn variants(mut self, variants: impl IntoIterator<Item = Variant>) -> SweepGrid {
        self.variants = variants.into_iter().collect();
        self
    }

    /// Sweep congestion-control schemes.
    pub fn ccs(mut self, ccs: impl IntoIterator<Item = CcKind>) -> SweepGrid {
        self.ccs = ccs.into_iter().collect();
        self
    }

    /// Expand into cells, ordered cc → variant (outermost first).
    /// Labels name the variant and CC like the paper's rows.
    pub fn build(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for cc in axis(&self.ccs) {
            for variant in axis(&self.variants) {
                let mut cfg = self.base.clone();
                let mut label = String::new();
                if let Some(&cc) = cc {
                    cfg = cfg.with_cc(cc);
                }
                if let Some(v) = variant {
                    cfg = cfg.with_transport(v.transport).with_pfc(v.pfc);
                    label.push_str(&v.name);
                }
                if let Some(&cc) = cc {
                    label.push_str(&cc_suffix(cc));
                }
                if label.is_empty() {
                    label.push_str("base");
                }
                cells.push(Cell::new(label, cfg));
            }
        }
        cells
    }
}

/// An axis: empty means "hold at base" (one `None` pass-through).
fn axis<T>(values: &[T]) -> Vec<Option<&T>> {
    if values.is_empty() {
        vec![None]
    } else {
        values.iter().map(Some).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentConfig {
        ExperimentConfig::quick(50)
    }

    #[test]
    fn grid_is_cartesian_in_declared_order() {
        let cells = SweepGrid::new(base())
            .variants([
                Variant::new("IRN", TransportKind::Irn, false),
                Variant::new("RoCE (PFC)", TransportKind::Roce, true),
            ])
            .ccs([CcKind::None, CcKind::Timely])
            .build();
        let labels: Vec<&str> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            ["IRN", "RoCE (PFC)", "IRN + Timely", "RoCE (PFC) + Timely"]
        );
        assert_eq!(cells[1].config().transport, TransportKind::Roce);
        assert!(cells[1].config().pfc);
        assert_eq!(cells[2].config().cc, CcKind::Timely);
    }

    #[test]
    fn unswept_axes_leave_base_untouched() {
        let cells = SweepGrid::new(base()).build();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label(), "base");
        assert_eq!(cells[0].config().seed, base().seed);
    }
}
