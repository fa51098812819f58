//! Feature taxonomy: the Table-3 classes and derived-feature descriptors.
//!
//! [`DerivedFeature`] is the one definition of a derived column: its class,
//! its name ([`DerivedFeature::name`]) and its value
//! ([`DerivedFeature::value`]). Assembling a training matrix
//! (`crate::encode::assemble`), writing a column from base lanes
//! ([`DerivedFeature::write_column`]) and re-expanding a scored row for
//! provenance all compute derived values through it.

use nevermind_ml::data::FeatureMeta;
use serde::{Deserialize, Serialize};

/// The Table-3 feature classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureClass {
    /// This Saturday's raw metric value (`l_i^K`).
    Basic,
    /// Change vs the previous week (`l_i^K − l_i^{K−1}`).
    Delta,
    /// Z-score vs the long-term history (`(l_i^K − l̄_i)/σ(l_i)`).
    TimeSeries,
    /// Measured value ÷ the profile expectation (`l_i^K / profile(l_i)`).
    Profile,
    /// Days since the most recent trouble ticket.
    Ticket,
    /// Fraction of weekly tests the modem missed.
    Modem,
    /// Square of a history/customer feature (`(l_i^t)²`).
    Quadratic,
    /// Product of two history/customer features (`l_i^t · l_j^t`).
    Product,
}

impl FeatureClass {
    /// Whether the class belongs to the paper's "history features" group.
    pub fn is_history(self) -> bool {
        matches!(self, FeatureClass::Basic | FeatureClass::Delta | FeatureClass::TimeSeries)
    }

    /// Whether the class belongs to the "customer features" group.
    pub fn is_customer(self) -> bool {
        matches!(self, FeatureClass::Profile | FeatureClass::Ticket | FeatureClass::Modem)
    }

    /// Whether the class is derived (Table 3 rows 7–8).
    pub fn is_derived(self) -> bool {
        matches!(self, FeatureClass::Quadratic | FeatureClass::Product)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureClass::Basic => "basic",
            FeatureClass::Delta => "delta",
            FeatureClass::TimeSeries => "time-series",
            FeatureClass::Profile => "profile",
            FeatureClass::Ticket => "ticket",
            FeatureClass::Modem => "modem",
            FeatureClass::Quadratic => "quadratic",
            FeatureClass::Product => "product",
        }
    }
}

/// A derived feature built from base (history + customer) columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DerivedFeature {
    /// `base[col]²`.
    Quadratic {
        /// Base column index.
        col: usize,
    },
    /// `base[a] · base[b]` with `a < b`.
    Product {
        /// First base column.
        a: usize,
        /// Second base column.
        b: usize,
    },
}

impl DerivedFeature {
    /// The class of the derived feature.
    pub fn class(self) -> FeatureClass {
        match self {
            DerivedFeature::Quadratic { .. } => FeatureClass::Quadratic,
            DerivedFeature::Product { .. } => FeatureClass::Product,
        }
    }

    /// The derived column's name, built from the base column names in
    /// `base`: `quad:{a}^2` or `prod:{a}*{b}`.
    pub fn name(self, base: &[FeatureMeta]) -> String {
        match self {
            DerivedFeature::Quadratic { col } => format!("quad:{}^2", base[col].name),
            DerivedFeature::Product { a, b } => format!("prod:{}*{}", base[a].name, base[b].name),
        }
    }

    /// The derived value of one row, given its base values by column: one
    /// `f32` product, `v·v` or `a·b`. A missing (`NaN`) factor makes the
    /// value `NaN`.
    pub fn value(self, base: impl Fn(usize) -> f32) -> f32 {
        match self {
            DerivedFeature::Quadratic { col } => {
                let v = base(col);
                v * v
            }
            DerivedFeature::Product { a, b } => base(a) * base(b),
        }
    }

    /// The base columns the value reads: `[col, col]` for a quadratic,
    /// `[a, b]` for a product.
    pub fn operands(self) -> [usize; 2] {
        match self {
            DerivedFeature::Quadratic { col } => [col, col],
            DerivedFeature::Product { a, b } => [a, b],
        }
    }

    /// Writes the derived column into `out`: row `r` gets [`Self::value`]
    /// of the row, where `base(c)` is base column `c` over the same rows.
    ///
    /// # Panics
    /// Panics if an operand's column is not one value per row of `out`.
    pub fn write_column<'b>(self, base: impl Fn(usize) -> &'b [f32], out: &mut [f32]) {
        let [a, b] = self.operands();
        let (xs, ys) = (base(a), base(b));
        assert!(xs.len() == out.len() && ys.len() == out.len(), "one value per row");
        for ((v, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            *v = self.value(|c| if c == a { x } else { y });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_predicates_partition_classes() {
        let all = [
            FeatureClass::Basic,
            FeatureClass::Delta,
            FeatureClass::TimeSeries,
            FeatureClass::Profile,
            FeatureClass::Ticket,
            FeatureClass::Modem,
            FeatureClass::Quadratic,
            FeatureClass::Product,
        ];
        for c in all {
            let groups = usize::from(c.is_history())
                + usize::from(c.is_customer())
                + usize::from(c.is_derived());
            assert_eq!(groups, 1, "{} must belong to exactly one group", c.label());
        }
    }

    #[test]
    fn derived_descriptor_class() {
        assert_eq!(DerivedFeature::Quadratic { col: 3 }.class(), FeatureClass::Quadratic);
        assert_eq!(DerivedFeature::Product { a: 1, b: 2 }.class(), FeatureClass::Product);
        let base: Vec<FeatureMeta> =
            ["dnbr", "looplength", "ts:dnnmr"].map(FeatureMeta::continuous).to_vec();
        assert_eq!(DerivedFeature::Quadratic { col: 2 }.name(&base), "quad:ts:dnnmr^2");
        assert_eq!(DerivedFeature::Product { a: 0, b: 1 }.name(&base), "prod:dnbr*looplength");
        let row = [3.0f32, -0.5, f32::NAN];
        assert_eq!(DerivedFeature::Quadratic { col: 0 }.value(|c| row[c]), 9.0);
        assert_eq!(DerivedFeature::Product { a: 0, b: 1 }.value(|c| row[c]), -1.5);
        assert!(DerivedFeature::Product { a: 1, b: 2 }.value(|c| row[c]).is_nan());
    }
}
