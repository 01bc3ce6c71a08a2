//! Pulse encodings of messages.
//!
//! The content-oblivious simulators never put information *inside* a pulse —
//! they encode the message in *how many* pulses travel in each direction:
//!
//! * **Unary encoding** (Algorithm 1(b)/3(b)): the message is mapped to a
//!   positive integer `d` and the sender emits `d` clockwise DATA pulses
//!   followed by one counterclockwise END pulse. Exponential in the message
//!   length (Lemma 7/13).
//! * **Binary encoding** (Algorithm 2 / §3.3): each bit is one pulse —
//!   clockwise for `1`, counterclockwise for `0`. The end of the message is
//!   signalled by `L` consecutive counterclockwise pulses, and the message is
//!   padded so that `L` consecutive zeros can only appear at the very end
//!   (Lemma 9/14).

use crate::error::CoreError;

/// Default padding parameter `L` for the binary encoding. The paper only
/// requires `L >= 2`; `L = 3` keeps the padding overhead at 50% worst-case.
pub const DEFAULT_L: usize = 3;

/// Which data-phase encoding a simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Unary (Algorithm 1(b)/3(b)): `d` DATA pulses + one END pulse,
    /// `d = unary_value(message)`. `max_pulses` bounds the acceptable `d`
    /// (the encoding is exponential; see [`CoreError::MessageTooLargeForUnary`]).
    Unary {
        /// Upper bound on the unary value a single message may require.
        max_pulses: u128,
    },
    /// Binary (Algorithm 2): one pulse per bit with terminal `0^l`.
    Binary {
        /// The padding parameter `L >= 2`.
        l: usize,
    },
}

impl Encoding {
    /// The unary encoding with a default 2^20-pulse budget per message.
    pub fn unary() -> Self {
        Encoding::Unary {
            max_pulses: 1 << 20,
        }
    }

    /// The binary encoding with [`DEFAULT_L`].
    pub fn binary() -> Self {
        Encoding::Binary { l: DEFAULT_L }
    }

    /// Validates the encoding parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPaddingParameter`] for `Binary { l < 2 }`.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            Encoding::Binary { l } if *l < 2 => Err(CoreError::InvalidPaddingParameter { l: *l }),
            _ => Ok(()),
        }
    }
}

impl Default for Encoding {
    fn default() -> Self {
        Encoding::binary()
    }
}

// ---------------------------------------------------------------------------
// Bit helpers
// ---------------------------------------------------------------------------

/// Expands bytes into bits, most-significant bit first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Packs bits (MSB first) back into bytes.
///
/// # Errors
///
/// Returns [`CoreError::MalformedFrame`] if the bit count is not a multiple
/// of 8 (a decoded message must consist of whole bytes).
pub fn bits_to_bytes(bits: &[bool]) -> Result<Vec<u8>, CoreError> {
    if !bits.len().is_multiple_of(8) {
        return Err(CoreError::MalformedFrame(format!(
            "bit count {} is not a multiple of 8",
            bits.len()
        )));
    }
    Ok(bits
        .chunks(8)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
        .collect())
}

// ---------------------------------------------------------------------------
// Unary encoding
// ---------------------------------------------------------------------------

/// The positive integer `d` whose unary representation `1^d` encodes the
/// message: the bijection prefixes the message bits with a `1` and reads the
/// result as a binary number, so distinct messages (including ones that
/// differ only in leading zero bytes) map to distinct values.
///
/// # Errors
///
/// Returns [`CoreError::MessageTooLargeForUnary`] if the value would not fit
/// `u128` (messages beyond 15 bytes).
pub fn unary_value(message: &[u8]) -> Result<u128, CoreError> {
    if message.len() > 15 {
        return Err(CoreError::MessageTooLargeForUnary {
            pulses_required: u128::MAX,
            max: u128::MAX,
        });
    }
    let mut v: u128 = 1;
    for &b in message {
        v = (v << 8) | u128::from(b);
    }
    Ok(v)
}

/// Inverse of [`unary_value`].
///
/// # Errors
///
/// Returns [`CoreError::MalformedFrame`] if `d` is zero or its binary
/// representation is not `1` followed by whole bytes.
pub fn unary_decode(d: u128) -> Result<Vec<u8>, CoreError> {
    if d == 0 {
        return Err(CoreError::MalformedFrame(
            "unary value must be positive".into(),
        ));
    }
    let bits_after_marker = 127 - d.leading_zeros() as usize;
    if !bits_after_marker.is_multiple_of(8) {
        return Err(CoreError::MalformedFrame(format!(
            "unary value {d} does not decode to whole bytes"
        )));
    }
    let len = bits_after_marker / 8;
    let mut out = vec![0u8; len];
    let mut v = d;
    for slot in out.iter_mut().rev() {
        *slot = (v & 0xFF) as u8;
        v >>= 8;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Binary (padded) encoding — Algorithm 2
// ---------------------------------------------------------------------------

/// Inserts a `1` after every `l - 1` consecutive `0`s (the paper's `pad`),
/// guaranteeing the padded string contains no run of `l` zeros.
pub fn pad(bits: &[bool], l: usize) -> Vec<bool> {
    debug_assert!(l >= 2);
    let mut out = Vec::with_capacity(bits.len() + bits.len() / (l - 1) + 1);
    let mut zero_run = 0usize;
    for &b in bits {
        out.push(b);
        if b {
            zero_run = 0;
        } else {
            zero_run += 1;
            if zero_run == l - 1 {
                out.push(true);
                zero_run = 0;
            }
        }
    }
    out
}

/// Removes every `1` that immediately follows `l - 1` consecutive `0`s (the
/// paper's `pad^{-1}`).
///
/// # Errors
///
/// Returns [`CoreError::MalformedFrame`] if a run of `l - 1` zeros is not
/// followed by the mandatory `1` (which cannot happen for strings produced by
/// [`pad`]).
pub fn unpad(bits: &[bool], l: usize) -> Result<Vec<bool>, CoreError> {
    debug_assert!(l >= 2);
    let mut out = Vec::with_capacity(bits.len());
    let mut zero_run = 0usize;
    let mut i = 0usize;
    while i < bits.len() {
        let b = bits[i];
        out.push(b);
        if b {
            zero_run = 0;
        } else {
            zero_run += 1;
            if zero_run == l - 1 {
                // The next bit must be the inserted 1; drop it.
                match bits.get(i + 1) {
                    Some(true) => {
                        i += 1;
                        zero_run = 0;
                    }
                    Some(false) => {
                        return Err(CoreError::MalformedFrame(format!(
                            "run of {l} zeros inside a padded string"
                        )))
                    }
                    None => {
                        return Err(CoreError::MalformedFrame(
                            "padded string ends in the middle of a padding group".into(),
                        ))
                    }
                }
            }
        }
        i += 1;
    }
    Ok(out)
}

/// Builds the full pulse frame of Algorithm 2:
/// `Z = 1 · pad(M) · 1 · 0^l` (a leading `1` so the first pulse is clockwise,
/// a trailing `1` so the terminal run of zeros is unique, and the terminal
/// itself).
pub fn frame(message: &[u8], l: usize) -> Vec<bool> {
    let mut z = Vec::new();
    z.push(true);
    z.extend(pad(&bytes_to_bits(message), l));
    z.push(true);
    z.extend(std::iter::repeat_n(false, l));
    z
}

/// Parses a received frame back into the message bytes. The input must be the
/// full recorded string including the leading `1` and the terminal `1 · 0^l`.
///
/// # Errors
///
/// Returns [`CoreError::MalformedFrame`] if the frame structure is violated.
pub fn parse_frame(bits: &[bool], l: usize) -> Result<Vec<u8>, CoreError> {
    if bits.len() < 2 + l {
        return Err(CoreError::MalformedFrame(format!(
            "frame of {} bits is shorter than the minimum {}",
            bits.len(),
            2 + l
        )));
    }
    if !bits[0] {
        return Err(CoreError::MalformedFrame(
            "frame does not start with a 1".into(),
        ));
    }
    let (body, terminal) = bits.split_at(bits.len() - l);
    if terminal.iter().any(|&b| b) {
        return Err(CoreError::MalformedFrame(
            "frame does not end with 0^L".into(),
        ));
    }
    let Some((&last, padded)) = body[1..].split_last() else {
        return Err(CoreError::MalformedFrame("frame too short".into()));
    };
    if !last {
        return Err(CoreError::MalformedFrame(
            "missing trailing 1 before the terminal".into(),
        ));
    }
    let unpadded = unpad(padded, l)?;
    bits_to_bytes(&unpadded)
}

/// Number of pulses the binary encoding uses for a message (`|Z|`), handy for
/// cost assertions in tests and benchmarks.
pub fn frame_len(message: &[u8], l: usize) -> usize {
    frame(message, l).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for bytes in [vec![], vec![0u8], vec![0xFF], vec![0b1010_0101, 0x00, 0x7E]] {
            assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)).unwrap(), bytes);
        }
        assert!(bits_to_bytes(&[true, false, true]).is_err());
    }

    #[test]
    fn bytes_to_bits_is_msb_first() {
        assert_eq!(
            bytes_to_bits(&[0b1000_0001]),
            vec![true, false, false, false, false, false, false, true]
        );
    }

    #[test]
    fn unary_roundtrip_preserves_leading_zero_bytes() {
        for msg in [
            vec![],
            vec![0u8],
            vec![0, 0],
            vec![7],
            vec![0, 200],
            vec![1, 2],
        ] {
            let d = unary_value(&msg).unwrap();
            assert!(d >= 1);
            assert_eq!(unary_decode(d).unwrap(), msg, "failed for {msg:?}");
        }
    }

    #[test]
    fn unary_values_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..=255u8 {
            assert!(seen.insert(unary_value(&[a]).unwrap()));
        }
        assert!(seen.insert(unary_value(&[]).unwrap()));
        assert!(seen.insert(unary_value(&[0, 0]).unwrap()));
    }

    #[test]
    fn unary_rejects_oversized_and_malformed() {
        assert!(unary_value(&[0u8; 16]).is_err());
        assert!(unary_decode(0).is_err());
        // 0b10 has 1 bit after the marker: not a whole byte.
        assert!(unary_decode(2).is_err());
    }

    #[test]
    fn pad_prevents_long_zero_runs() {
        for l in 2..=5usize {
            let bits = bytes_to_bits(&[0x00, 0x00, 0x80, 0x01]);
            let padded = pad(&bits, l);
            let mut run = 0;
            for &b in &padded {
                if b {
                    run = 0;
                } else {
                    run += 1;
                }
                assert!(run < l, "run of {run} zeros with L = {l}");
            }
            assert_eq!(unpad(&padded, l).unwrap(), bits);
        }
    }

    #[test]
    fn unpad_rejects_illegal_runs() {
        assert!(unpad(&[false, false, false], 3).is_err());
        assert!(unpad(&[false, false], 3).is_err());
        // With L = 2 every 0 is followed by an inserted 1 in a padded string.
        assert_eq!(
            unpad(&[false, true, false, true], 2).unwrap(),
            vec![false, false]
        );
        assert!(unpad(&[false, true, false], 2).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        for l in 2..=4usize {
            for msg in [
                vec![],
                vec![0u8],
                vec![0xFF],
                vec![0x00, 0x00],
                vec![1, 2, 3, 4],
            ] {
                let z = frame(&msg, l);
                assert_eq!(z.len(), frame_len(&msg, l));
                // The terminal 0^L appears only at the very end.
                let interior = &z[..z.len() - l];
                let mut run = 0;
                for &b in interior {
                    if b {
                        run = 0;
                    } else {
                        run += 1;
                    }
                    assert!(run < l);
                }
                assert_eq!(parse_frame(&z, l).unwrap(), msg, "l={l} msg={msg:?}");
            }
        }
    }

    #[test]
    fn parse_frame_rejects_malformed() {
        assert!(parse_frame(&[true, false], 3).is_err()); // too short
        assert!(parse_frame(&[false, true, true, false, false, false], 3).is_err()); // no leading 1
        assert!(parse_frame(&[true, true, false, false, true], 3).is_err()); // bad terminal
        let mut z = frame(&[5], 3);
        let n = z.len();
        z[n - 4] = false; // destroy the trailing 1
        assert!(parse_frame(&z, 3).is_err());
    }

    #[test]
    fn encoding_constructors_and_validation() {
        assert_eq!(Encoding::default(), Encoding::binary());
        assert!(Encoding::binary().validate().is_ok());
        assert!(Encoding::unary().validate().is_ok());
        assert!(Encoding::Binary { l: 1 }.validate().is_err());
        assert!(Encoding::Binary { l: 2 }.validate().is_ok());
    }

    #[test]
    fn frame_overhead_matches_lemma9_shape() {
        // |Z| <= 2 + L + (1 + 1/(L-1)) |M| : the Lemma 9 accounting.
        for l in 2..=4usize {
            for len in 0..=16usize {
                let msg = vec![0u8; len]; // all-zero message maximises padding
                let bound = 2 + l + (len * 8) + (len * 8).div_ceil(l - 1);
                assert!(frame_len(&msg, l) <= bound);
            }
        }
    }
}
