//! # cs-codec — entropy-coding substrate of the CS-ECG encoder
//!
//! After the linear CS stage, the paper's mote-side pipeline removes
//! inter-packet redundancy and entropy-codes the result (Fig. 1):
//!
//! * [`DiffEncoder`] / [`DiffDecoder`] — closed-loop differencing of
//!   consecutive measurement vectors, clamped to the paper's `[−256, 255]`
//!   range, with periodic raw reference packets for resynchronization;
//! * [`Codebook`] — a 512-symbol, canonical, **length-limited** Huffman
//!   code (max 16 bits, built with package–merge), trained offline and
//!   stored on the mote in 1.5 kB exactly as the paper describes;
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit packing for the radio.
//!
//! ## Example: difference + entropy-code one packet
//!
//! ```
//! use cs_codec::{
//!     value_to_symbol, BitReader, BitWriter, Codebook, DiffConfig, DiffEncoder, DiffPacket,
//! };
//!
//! let cfg = DiffConfig { vector_len: 4, reference_interval: 8, alphabet: 512 };
//! let mut enc = DiffEncoder::new(cfg);
//! let _reference = enc.encode(&[10, 20, 30, 40])?;
//! let delta = enc.encode(&[12, 19, 30, 41])?;
//!
//! // Train a toy codebook and push the deltas through it.
//! let counts = vec![1_u64; 512];
//! let codebook = Codebook::from_counts(&counts, 512)?;
//! if let DiffPacket::Delta(block) = &delta {
//!     let symbols: Vec<u16> = block
//!         .values
//!         .iter()
//!         .map(|&v| value_to_symbol(v as i32, 512))
//!         .collect::<Result<_, _>>()?;
//!     let mut w = BitWriter::new();
//!     codebook.encode(&symbols, &mut w)?;
//!     let bytes = w.finish();
//!     let mut r = BitReader::new(&bytes);
//!     assert_eq!(codebook.decode(&mut r, symbols.len())?, symbols);
//! }
//! # Ok::<(), cs_codec::CodecError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitstream;
mod diff;
mod error;
mod huffman;
#[cfg(test)]
mod reference;
mod rice;

pub use bitstream::{BitReader, BitWriter};
pub use diff::{
    DeltaBlock, DiffConfig, DiffDecoder, DiffEncoder, DiffPacket, DiffStep, MAX_DELTA_SHIFT,
};
pub use error::CodecError;
pub use huffman::{symbol_to_value, value_to_symbol, Codebook, MAX_CODE_LEN};
pub use rice::{
    optimal_rice_k, rice_decode_block, rice_decode_value, rice_encode_block, rice_encode_value,
    zigzag_decode, zigzag_encode, MAX_RICE_K,
};
