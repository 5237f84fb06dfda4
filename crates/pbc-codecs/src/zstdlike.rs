//! Zstandard-like codec: LZ77 parse with a large window followed by a
//! canonical-Huffman entropy stage over separated literal and sequence
//! streams, with compression levels and offline dictionary training.
//!
//! This stands in for Zstd in the paper's evaluation: RocksDB's and
//! TierBase's block compressor, "the best trade-off between compression
//! ratio and efficiency for database systems", and the paper's strongest
//! general-purpose dictionary-mode baseline for short records
//! (`Zstd(dict)` in Table 3).
//!
//! ## Format
//!
//! ```text
//! varint  raw_len
//! varint  token_count
//! block   literals   (entropy-coded or raw, see `write_block`)
//! block   sequences  (varint triples lit_len/offset/match_len, entropy-coded or raw)
//! ```
//!
//! Each block starts with a flag byte (0 = raw, 1 = Huffman) and a varint
//! payload length, mirroring Zstd's per-block entropy mode selection.

use crate::error::{CodecError, Result};
use crate::huffman;
use crate::lz77::{MatchFinder, MatchFinderConfig, MIN_MATCH};
use crate::traits::{Codec, DictCodec};
use crate::varint;

/// Cap on the up-front output reservation, as a multiple of the decoded
/// literal and sequence streams (a match length is an unbounded varint, so
/// there is no finite maximum expansion to reserve exactly).
const RESERVE_EXPANSION: usize = 16;

/// Zstd-like compressor with a level knob (1 = fastest, 19 = strongest).
#[derive(Debug, Clone)]
pub struct ZstdLike {
    level: i32,
    config: MatchFinderConfig,
}

impl Default for ZstdLike {
    fn default() -> Self {
        Self::new(3)
    }
}

impl ZstdLike {
    /// Create a codec at the given compression level (clamped to 1..=19).
    /// Level 3 mirrors Zstd's default.
    pub fn new(level: i32) -> Self {
        let level = level.clamp(1, 19);
        let config = match level {
            1..=2 => MatchFinderConfig::fast(),
            3..=9 => {
                let mut c = MatchFinderConfig::balanced();
                c.max_chain = 32 * level as usize;
                c
            }
            _ => {
                let mut c = MatchFinderConfig::thorough();
                c.max_chain = 64 * level as usize;
                c
            }
        };
        ZstdLike { level, config }
    }

    /// The configured compression level.
    pub fn level(&self) -> i32 {
        self.level
    }

    fn compress_internal(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 3 + 32);
        varint::write_usize(&mut out, input.len());
        if input.is_empty() {
            return out;
        }
        let mut data = Vec::with_capacity(dict.len() + input.len());
        data.extend_from_slice(dict);
        data.extend_from_slice(input);
        let mut finder = MatchFinder::new(&data, dict.len(), self.config);
        let tokens = finder.parse();
        varint::write_usize(&mut out, tokens.len());

        // Stream separation: literals in one buffer, sequence triples in another.
        let mut literals = Vec::new();
        let mut sequences = Vec::new();
        for t in &tokens {
            literals.extend_from_slice(&data[t.literal_start..t.literal_start + t.literal_len]);
            varint::write_usize(&mut sequences, t.literal_len);
            match t.match_ {
                Some(m) => {
                    varint::write_usize(&mut sequences, m.offset);
                    varint::write_usize(&mut sequences, m.len - MIN_MATCH);
                }
                None => {
                    // Terminal token: offset 0 marks "no match".
                    varint::write_usize(&mut sequences, 0);
                }
            }
        }
        write_block(&mut out, &literals);
        write_block(&mut out, &sequences);
        out
    }

    fn decompress_internal(&self, input: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
        let (raw_len, pos) = varint::read_usize(input, 0)?;
        if raw_len == 0 {
            return Ok(Vec::new());
        }
        let (token_count, pos) = varint::read_usize(input, pos)?;
        let (literals, pos) = read_block(input, pos)?;
        let (sequences, _pos) = read_block(input, pos)?;

        let target = dict
            .len()
            .checked_add(raw_len)
            .ok_or_else(|| CodecError::corrupt("zstd declared length overflows"))?;
        // The declared length is untrusted: reserve no more than a fixed
        // multiple of the decoded streams and grow past that only as
        // output is produced.
        let streams_len = literals.len() + sequences.len();
        let mut out = Vec::with_capacity(
            dict.len() + raw_len.min(streams_len.saturating_mul(RESERVE_EXPANSION)),
        );
        out.extend_from_slice(dict);
        let mut lit_pos = 0usize;
        let mut seq_pos = 0usize;
        for i in 0..token_count {
            let (lit_len, p) = varint::read_usize(&sequences, seq_pos)?;
            seq_pos = p;
            if lit_len > literals.len() - lit_pos {
                return Err(CodecError::UnexpectedEof {
                    context: "zstd literal stream",
                });
            }
            out.extend_from_slice(&literals[lit_pos..lit_pos + lit_len]);
            lit_pos += lit_len;
            let (offset, p) = varint::read_usize(&sequences, seq_pos)?;
            seq_pos = p;
            if offset == 0 {
                // Terminal token; must be the last one.
                if i + 1 != token_count {
                    return Err(CodecError::corrupt("zstd terminal token before end"));
                }
                break;
            }
            let (len_code, p) = varint::read_usize(&sequences, seq_pos)?;
            seq_pos = p;
            let match_len = len_code.saturating_add(MIN_MATCH);
            if match_len > target.saturating_sub(out.len()) {
                return Err(CodecError::corrupt("zstd match overruns declared size"));
            }
            if offset > out.len() {
                return Err(CodecError::InvalidOffset {
                    offset,
                    position: out.len(),
                });
            }
            let start = out.len() - offset;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() != target {
            return Err(CodecError::corrupt(format!(
                "zstd stream produced {} bytes, expected {}",
                out.len() - dict.len(),
                raw_len
            )));
        }
        out.drain(..dict.len());
        Ok(out)
    }
}

/// Write an entropy-coded block: pick raw or Huffman, whichever is smaller.
fn write_block(out: &mut Vec<u8>, payload: &[u8]) {
    let encoded = huffman::compress(payload);
    if encoded.len() < payload.len() {
        out.push(1);
        varint::write_usize(out, encoded.len());
        out.extend_from_slice(&encoded);
    } else {
        out.push(0);
        varint::write_usize(out, payload.len());
        out.extend_from_slice(payload);
    }
}

/// Read a block written by [`write_block`].
fn read_block(input: &[u8], pos: usize) -> Result<(Vec<u8>, usize)> {
    let flag = *input.get(pos).ok_or(CodecError::UnexpectedEof {
        context: "zstd block flag",
    })?;
    let (len, pos) = varint::read_usize(input, pos + 1)?;
    if len > input.len() - pos {
        return Err(CodecError::UnexpectedEof {
            context: "zstd block payload",
        });
    }
    let payload = &input[pos..pos + len];
    let data = match flag {
        0 => payload.to_vec(),
        1 => huffman::decompress(payload)?,
        _ => return Err(CodecError::corrupt("unknown zstd block flag")),
    };
    Ok((data, pos + len))
}

impl Codec for ZstdLike {
    fn name(&self) -> &str {
        "Zstd-like"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        self.compress_internal(input, &[])
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_internal(input, &[])
    }
}

impl DictCodec for ZstdLike {
    fn compress_with_dict(&self, input: &[u8], dict: &[u8]) -> Vec<u8> {
        self.compress_internal(input, dict)
    }

    fn decompress_with_dict(&self, input: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
        self.decompress_internal(input, dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &ZstdLike, data: &[u8]) {
        let compressed = codec.compress(data);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_across_levels() {
        let data = b"INFO 2023-05-01 connection from 10.0.0.1 established; session=42\n".repeat(64);
        for level in [1, 3, 9, 19] {
            roundtrip(&ZstdLike::new(level), &data);
        }
    }

    #[test]
    fn level_is_clamped() {
        assert_eq!(ZstdLike::new(0).level(), 1);
        assert_eq!(ZstdLike::new(100).level(), 19);
        assert_eq!(ZstdLike::new(5).level(), 5);
    }

    #[test]
    fn higher_levels_do_not_compress_worse_on_redundant_data() {
        let mut data = Vec::new();
        for i in 0..400 {
            data.extend_from_slice(
                format!(
                    "user_id={} action=click page=/home/section/{} ts=16395{:05}\n",
                    10_000 + i,
                    i % 7,
                    i * 13
                )
                .as_bytes(),
            );
        }
        let fast = ZstdLike::new(1).compress(&data).len();
        let strong = ZstdLike::new(19).compress(&data).len();
        assert!(
            strong <= fast,
            "level 19 ({strong}) should be <= level 1 ({fast})"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let codec = ZstdLike::default();
        roundtrip(&codec, b"");
        roundtrip(&codec, b"a");
        roundtrip(&codec, b"ab");
        roundtrip(&codec, b"zstd");
    }

    #[test]
    fn entropy_stage_beats_plain_lz_on_text() {
        // Text with skewed byte distribution but few long repeats: the
        // Huffman stage should push the ratio below plain LZ4-like.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("{:08}", i * 7919 % 10_000_000).as_bytes());
        }
        let zstd = ZstdLike::new(3).compress(&data).len();
        let lz4 = crate::lz4like::Lz4Like::new().compress(&data).len();
        assert!(
            zstd < lz4,
            "zstd-like ({zstd}) should beat lz4-like ({lz4}) on digit soup"
        );
    }

    #[test]
    fn dictionary_mode_roundtrips_and_helps_short_records() {
        let codec = ZstdLike::new(3);
        let dict =
            b"{\"event\":\"page_view\",\"user\":\"\",\"url\":\"https://example.com/\",\"ms\":}"
                .to_vec();
        let record =
            b"{\"event\":\"page_view\",\"user\":\"u_8842\",\"url\":\"https://example.com/checkout\",\"ms\":132}";
        let plain = codec.compress(record);
        let with_dict = codec.compress_with_dict(record, &dict);
        assert!(with_dict.len() < plain.len());
        assert_eq!(
            codec.decompress_with_dict(&with_dict, &dict).unwrap(),
            record
        );
    }

    #[test]
    fn corrupt_input_is_rejected() {
        let codec = ZstdLike::default();
        let data = b"hello hello hello hello hello hello".repeat(8);
        let mut compressed = codec.compress(&data);
        compressed.truncate(compressed.len() / 2);
        assert!(codec.decompress(&compressed).is_err());
        assert!(codec.decompress(&[7, 9, 200, 200, 200]).is_err());
    }

    #[test]
    fn block_mode_selection_handles_incompressible_blocks() {
        // Random bytes: Huffman should be skipped (raw flag), total expansion small.
        let mut state = 1u64;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 56) as u8
            })
            .collect();
        let codec = ZstdLike::new(3);
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len() + data.len() / 16 + 64);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }
}
