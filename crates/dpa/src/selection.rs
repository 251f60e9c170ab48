//! Selection functions (`D` in the paper's eq. 7).

use qdi_crypto::{aes, des};

/// A single-bit selection function over a plaintext input and a key guess.
///
/// Implementors predict one bit of an intermediate value; the DPA engine
/// partitions traces on that prediction for every candidate `guess`.
/// The engine evaluates it from pool workers, hence the `Sync` bound.
pub trait SelectionFunction: Sync {
    /// Number of key guesses to enumerate (e.g. 256 for a key byte).
    fn guess_count(&self) -> u16;

    /// The predicted bit `D(input, guess)`.
    fn select(&self, input: &[u8], guess: u16) -> bool;

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// The paper's AES selection function:
/// `D(C1, P8, K8) = XOR(P8, K8)(C1)` — bit `bit` of `p ⊕ k` for one byte
/// position. `input[byte]` is the plaintext byte.
///
/// Being linear, this function only resolves the targeted key *bit* (all
/// guesses sharing it produce identical partitions, complementary guesses
/// flip the bias sign); use [`AesSboxSelect`] to resolve a full key byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AesXorSelect {
    /// Index of the plaintext byte within the input record.
    pub byte: usize,
    /// Targeted bit (0 = LSB).
    pub bit: u8,
}

impl SelectionFunction for AesXorSelect {
    fn guess_count(&self) -> u16 {
        256
    }

    fn select(&self, input: &[u8], guess: u16) -> bool {
        let v = aes::first_round_xor(input[self.byte], guess as u8);
        (v >> self.bit) & 1 == 1
    }

    fn name(&self) -> String {
        format!("aes-xor[b{} bit{}]", self.byte, self.bit)
    }
}

/// The classic AES selection function `D = SBOX(p ⊕ k)(bit)` — nonlinear,
/// so the correct guess stands out among all 256 candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AesSboxSelect {
    /// Index of the plaintext byte within the input record.
    pub byte: usize,
    /// Targeted bit (0 = LSB).
    pub bit: u8,
}

impl SelectionFunction for AesSboxSelect {
    fn guess_count(&self) -> u16 {
        256
    }

    fn select(&self, input: &[u8], guess: u16) -> bool {
        let v = aes::first_round_sbox(input[self.byte], guess as u8);
        (v >> self.bit) & 1 == 1
    }

    fn name(&self) -> String {
        format!("aes-sbox[b{} bit{}]", self.byte, self.bit)
    }
}

/// The paper's DES selection function:
/// `D(C1, P6, K0) = SBOX1(P6 ⊕ K0)(C1)` — bit `bit` of S-box
/// `sbox_index` applied to the 6-bit plaintext chunk `input[byte]` XOR a
/// 6-bit subkey guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesSboxSelect {
    /// Which S-box (0 = the paper's SBOX1).
    pub sbox_index: usize,
    /// Index of the 6-bit chunk within the input record.
    pub byte: usize,
    /// Targeted output bit (0 = LSB of the 4-bit S-box output).
    pub bit: u8,
}

impl SelectionFunction for DesSboxSelect {
    fn guess_count(&self) -> u16 {
        64
    }

    fn select(&self, input: &[u8], guess: u16) -> bool {
        let v = des::first_round_sbox(self.sbox_index, input[self.byte], guess as u8);
        (v >> self.bit) & 1 == 1
    }

    fn name(&self) -> String {
        format!(
            "des-sbox{}[b{} bit{}]",
            self.sbox_index + 1,
            self.byte,
            self.bit
        )
    }
}

/// A selection function defined by a closure — used for oracle splits
/// (known-input signature studies such as the paper's Figs. 6–7) and for
/// tests.
pub struct ClosureSelect<F> {
    name: String,
    guesses: u16,
    f: F,
}

impl<F: Fn(&[u8], u16) -> bool + Sync> ClosureSelect<F> {
    /// Wraps `f` as a selection function enumerating `guesses` candidates.
    pub fn new(name: impl Into<String>, guesses: u16, f: F) -> Self {
        ClosureSelect {
            name: name.into(),
            guesses,
            f,
        }
    }
}

impl<F: Fn(&[u8], u16) -> bool + Sync> SelectionFunction for ClosureSelect<F> {
    fn guess_count(&self) -> u16 {
        self.guesses
    }

    fn select(&self, input: &[u8], guess: u16) -> bool {
        (self.f)(input, guess)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl<F> std::fmt::Debug for ClosureSelect<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureSelect")
            .field("name", &self.name)
            .field("guesses", &self.guesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_xor_select_is_bit_of_xor() {
        let sel = AesXorSelect { byte: 0, bit: 0 };
        assert!(sel.select(&[0x01], 0x00));
        assert!(!sel.select(&[0x01], 0x01));
        assert_eq!(sel.guess_count(), 256);
    }

    #[test]
    fn aes_xor_select_is_linear_in_guess_bit() {
        // Guesses sharing the targeted bit give identical predictions.
        let sel = AesXorSelect { byte: 0, bit: 3 };
        for p in [0x00u8, 0x5A, 0xFF] {
            assert_eq!(sel.select(&[p], 0x08), sel.select(&[p], 0xF8));
            assert_ne!(sel.select(&[p], 0x08), sel.select(&[p], 0x00));
        }
    }

    #[test]
    fn aes_sbox_select_matches_reference() {
        let sel = AesSboxSelect { byte: 0, bit: 7 };
        let v = aes::first_round_sbox(0x12, 0x34);
        assert_eq!(sel.select(&[0x12], 0x34), (v >> 7) & 1 == 1);
    }

    #[test]
    fn des_select_uses_six_bit_guesses() {
        let sel = DesSboxSelect {
            sbox_index: 0,
            byte: 0,
            bit: 0,
        };
        assert_eq!(sel.guess_count(), 64);
        let v = des::first_round_sbox(0, 0b101010, 0b010101);
        assert_eq!(sel.select(&[0b101010], 0b010101), v & 1 == 1);
    }

    #[test]
    fn closure_select_delegates() {
        let sel = ClosureSelect::new("parity", 2, |input: &[u8], _| {
            input[0].count_ones() % 2 == 1
        });
        assert!(sel.select(&[0b0111], 0));
        assert!(!sel.select(&[0b0011], 1));
        assert_eq!(sel.name(), "parity");
    }
}
