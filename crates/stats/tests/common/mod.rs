//! The random-relation generator the statistics property tests share:
//! integer, string and mixed columns over narrow and wide integer ranges
//! and the `i64` extremes.

use sj_storage::{Tuple, Value};
use sj_workload::SplitMix64;

/// What a generated column holds.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Int,
    Str,
    Mixed,
}

/// One case: its integers come from `-width..=width`, plus the `i64`
/// extremes; its strings from six short ones.
pub struct Gen {
    pub rng: SplitMix64,
    pub width: i64,
}

impl Gen {
    pub fn int(&mut self) -> i64 {
        match self.rng.below(50) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => self.rng.range_i64(-self.width, self.width),
        }
    }

    pub fn value(&mut self, kind: Kind) -> Value {
        let string = match kind {
            Kind::Int => false,
            Kind::Str => true,
            Kind::Mixed => self.rng.below(2) == 0,
        };
        if string {
            Value::str(format!("s{}", self.rng.below(6)))
        } else {
            Value::int(self.int())
        }
    }

    pub fn tuple(&mut self, kinds: &[Kind]) -> Tuple {
        Tuple::new(kinds.iter().map(|&k| self.value(k)).collect())
    }
}
