//! Basic physical units used throughout the simulator.

/// A simulation timestamp or duration, measured in memory-clock cycles.
///
/// The whole NeuPIMs device (NPU, PIM, HBM command interface) is clocked at
/// [`FREQ_GHZ`] in the paper's Table 2, so a single cycle unit suffices.
pub type Cycle = u64;

/// A quantity of data, in bytes.
pub type Bytes = u64;

/// Clock frequency of the prototype device (Table 2: 1 GHz).
pub const FREQ_GHZ: f64 = 1.0;

/// Converts a cycle count into seconds at the device clock.
///
/// ```
/// assert_eq!(neupims_types::units::cycles_to_secs(1_000_000_000), 1.0);
/// ```
pub fn cycles_to_secs(cycles: Cycle) -> f64 {
    cycles as f64 / (FREQ_GHZ * 1e9)
}

/// Numeric element type carried by tensors in the simulated model.
///
/// The paper evaluates fp16 models; fp32 is used by reference math in tests
/// and int8 is provided for completeness of the cost models.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum DataType {
    /// IEEE 754 half precision (2 bytes). The paper's evaluation format.
    #[default]
    Fp16,
    /// IEEE 754 single precision (4 bytes).
    Fp32,
    /// 8-bit integer (1 byte).
    Int8,
}

impl DataType {
    /// Size of one element in bytes.
    ///
    /// ```
    /// use neupims_types::DataType;
    /// assert_eq!(DataType::Fp16.size_bytes(), 2);
    /// ```
    pub const fn size_bytes(self) -> u64 {
        match self {
            DataType::Fp16 => 2,
            DataType::Fp32 => 4,
            DataType::Int8 => 1,
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataType::Fp16 => write!(f, "fp16"),
            DataType::Fp32 => write!(f, "fp32"),
            DataType::Int8 => write!(f, "int8"),
        }
    }
}

/// Integer ceiling division.
///
/// ```
/// assert_eq!(neupims_types::units::div_ceil(7, 2), 4);
/// ```
pub fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// A positive `u64` divisor prepared once for many divisions: a power of
/// two divides by shifting, any other divisor by the hardware division.
/// Both round exactly as `u64::div_ceil` and `/` do.
///
/// ```
/// use neupims_types::Divisor;
///
/// assert_eq!(Divisor::new(32).div_ceil(33), 2);
/// assert_eq!(Divisor::new(48).div_ceil(97), 3);
/// assert_eq!(Divisor::new(48).div(97), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    value: u64,
    /// `log2(value)` for a power of two, [`Self::NO_SHIFT`] otherwise.
    shift: u32,
}

impl Divisor {
    const NO_SHIFT: u32 = u32::MAX;

    /// Prepares `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero, as dividing by it would.
    pub const fn new(value: u64) -> Self {
        assert!(value > 0, "a divisor must be positive");
        let shift = if value.is_power_of_two() {
            value.trailing_zeros()
        } else {
            Self::NO_SHIFT
        };
        Self { value, shift }
    }

    /// The divisor.
    pub const fn get(self) -> u64 {
        self.value
    }

    /// `x / self`, rounded down.
    #[inline]
    pub const fn div(self, x: u64) -> u64 {
        if self.shift == Self::NO_SHIFT {
            x / self.value
        } else {
            x >> self.shift
        }
    }

    /// `x / self`, rounded up.
    #[inline]
    pub const fn div_ceil(self, x: u64) -> u64 {
        if self.shift == Self::NO_SHIFT {
            x.div_ceil(self.value)
        } else {
            (x >> self.shift) + ((x & (self.value - 1)) != 0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_sizes() {
        assert_eq!(DataType::Fp16.size_bytes(), 2);
        assert_eq!(DataType::Fp32.size_bytes(), 4);
        assert_eq!(DataType::Int8.size_bytes(), 1);
    }

    #[test]
    fn datatype_display() {
        assert_eq!(DataType::Fp16.to_string(), "fp16");
        assert_eq!(DataType::Fp32.to_string(), "fp32");
        assert_eq!(DataType::Int8.to_string(), "int8");
    }

    #[test]
    fn prepared_divisors_round_like_the_operators() {
        let xs = [
            0,
            1,
            2,
            3,
            31,
            32,
            33,
            1 << 40,
            (1 << 40) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in (1..=130).chain([1 << 20, (1 << 20) + 1, 1 << 63, u64::MAX]) {
            let div = Divisor::new(d);
            assert_eq!(div.get(), d);
            for x in xs.into_iter().chain((0..300).map(|i| i * 7)) {
                assert_eq!(div.div_ceil(x), x.div_ceil(d), "{x} / {d} rounded up");
                assert_eq!(div.div(x), x / d, "{x} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a divisor must be positive")]
    fn zero_divisor_is_rejected() {
        let _ = Divisor::new(0);
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 3), 0);
        assert_eq!(div_ceil(1, 3), 1);
        assert_eq!(div_ceil(3, 3), 1);
        assert_eq!(div_ceil(4, 3), 2);
    }
}
