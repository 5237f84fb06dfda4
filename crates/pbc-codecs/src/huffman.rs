//! Canonical Huffman coding over byte alphabets.
//!
//! This is the entropy stage of the [`crate::zstdlike`] codec (standing in
//! for Zstd's FSE/Huffman stage) and is also exposed directly so that PBC's
//! optional residual-subsequence entropy encoding (Section 5.2, option 1 of
//! the paper) can reuse it.
//!
//! The encoder limits code lengths to [`MAX_CODE_LEN`] bits so the decoder
//! can use a single flat lookup table.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, Result};
use crate::varint;

/// Maximum code length in bits. 15 keeps the decode table at 32K entries.
pub const MAX_CODE_LEN: u8 = 15;

/// Number of symbols in the byte alphabet.
const ALPHABET: usize = 256;

/// A canonical Huffman code book: one code length and code value per symbol.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Code length in bits per symbol; 0 means the symbol does not occur.
    lengths: [u8; ALPHABET],
    /// Canonical code value per symbol (valid when length > 0).
    codes: [u16; ALPHABET],
}

impl HuffmanTable {
    /// Build a length-limited canonical Huffman table from symbol
    /// frequencies.
    ///
    /// Frequencies of zero produce no code. If only one distinct symbol
    /// occurs it is assigned a 1-bit code so the format stays decodable.
    pub fn from_frequencies(freqs: &[u64; ALPHABET]) -> Self {
        let lengths = build_code_lengths(freqs);
        let codes = canonical_codes(&lengths);
        HuffmanTable { lengths, codes }
    }

    /// Reconstruct a table from the per-symbol code lengths alone
    /// (canonical codes are fully determined by the lengths).
    pub fn from_lengths(lengths: [u8; ALPHABET]) -> Result<Self> {
        validate_lengths(&lengths)?;
        let codes = canonical_codes(&lengths);
        Ok(HuffmanTable { lengths, codes })
    }

    /// Code length of `symbol` in bits (0 if the symbol has no code).
    pub fn length(&self, symbol: u8) -> u8 {
        self.lengths[symbol as usize]
    }

    /// Total encoded size in bits for the given frequencies under this table.
    pub fn encoded_bits(&self, freqs: &[u64; ALPHABET]) -> u64 {
        freqs
            .iter()
            .zip(self.lengths.iter())
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    }

    /// Serialize the code lengths (4 bits per symbol, 128 bytes).
    fn write_lengths(&self, out: &mut Vec<u8>) {
        let mut w = BitWriter::with_capacity(ALPHABET / 2);
        for &l in &self.lengths {
            w.write_bits(u64::from(l), 4);
        }
        out.extend_from_slice(&w.finish());
    }

    /// Deserialize code lengths written by [`Self::write_lengths`].
    fn read_lengths(input: &[u8], pos: usize) -> Result<(Self, usize)> {
        let needed = ALPHABET / 2;
        if input.len() < pos + needed {
            return Err(CodecError::UnexpectedEof {
                context: "huffman code lengths",
            });
        }
        let mut lengths = [0u8; ALPHABET];
        let mut r = BitReader::new(&input[pos..pos + needed]);
        for l in lengths.iter_mut() {
            *l = r.read_bits(4)? as u8;
        }
        Ok((Self::from_lengths(lengths)?, pos + needed))
    }
}

/// Validate that non-zero code lengths satisfy the Kraft inequality (i.e.
/// they describe a prefix-free code) and never exceed [`MAX_CODE_LEN`].
fn validate_lengths(lengths: &[u8; ALPHABET]) -> Result<()> {
    let mut kraft: u64 = 0;
    let unit = 1u64 << MAX_CODE_LEN;
    for &l in lengths {
        if l > MAX_CODE_LEN {
            return Err(CodecError::corrupt("huffman code length exceeds maximum"));
        }
        if l > 0 {
            kraft += unit >> l;
        }
    }
    if kraft > unit {
        return Err(CodecError::corrupt(
            "huffman code lengths violate Kraft inequality",
        ));
    }
    Ok(())
}

/// Heap-based Huffman construction followed by a length-limiting pass.
fn build_code_lengths(freqs: &[u64; ALPHABET]) -> [u8; ALPHABET] {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut lengths = [0u8; ALPHABET];
    let present: Vec<usize> = (0..ALPHABET).filter(|&s| freqs[s] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Node arena: leaves first, then internal nodes.
    #[derive(Clone, Copy)]
    struct Node {
        left: usize,
        right: usize,
        symbol: usize,
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(present.len() * 2);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for &s in &present {
        nodes.push(Node {
            left: usize::MAX,
            right: usize::MAX,
            symbol: s,
        });
        heap.push(Reverse((freqs[s], nodes.len() - 1)));
    }
    while heap.len() > 1 {
        // pbc-allow(panic): loop guard: heap.len() > 1
        let Reverse((fa, a)) = heap.pop().expect("heap has two items");
        // pbc-allow(panic): loop guard: heap.len() > 1
        let Reverse((fb, b)) = heap.pop().expect("heap has two items");
        nodes.push(Node {
            left: a,
            right: b,
            symbol: usize::MAX,
        });
        heap.push(Reverse((fa + fb, nodes.len() - 1)));
    }
    // pbc-allow(panic): the merge loop leaves exactly the root in the heap
    let root = heap.pop().expect("root").0 .1;

    // Iterative depth-first traversal to assign depths.
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx];
        if node.symbol != usize::MAX {
            lengths[node.symbol] = depth.max(1);
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }

    limit_lengths(&mut lengths);
    lengths
}

/// Clamp code lengths to [`MAX_CODE_LEN`] while keeping the code prefix-free,
/// using the classic "overflow repair" on the Kraft sum.
fn limit_lengths(lengths: &mut [u8; ALPHABET]) {
    let unit = 1u64 << MAX_CODE_LEN;
    let mut overflow = false;
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
            overflow = true;
        }
    }
    if !overflow {
        return;
    }
    // Compute Kraft sum in units of 2^-MAX_CODE_LEN.
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    let mut excess = kraft.saturating_sub(unit);
    // Lengthen the shortest over-short codes until the Kraft inequality holds.
    while excess > 0 {
        // Find a symbol whose code can be lengthened (length < MAX) with the
        // largest Kraft contribution reduction.
        let candidate = (0..ALPHABET)
            .filter(|&s| lengths[s] > 0 && lengths[s] < MAX_CODE_LEN)
            .min_by_key(|&s| lengths[s]);
        match candidate {
            Some(s) => {
                let before = unit >> lengths[s];
                lengths[s] += 1;
                let after = unit >> lengths[s];
                excess = excess.saturating_sub(before - after);
            }
            None => break,
        }
    }
}

/// Assign canonical code values: shorter codes first, ties broken by symbol.
fn canonical_codes(lengths: &[u8; ALPHABET]) -> [u16; ALPHABET] {
    let mut codes = [0u16; ALPHABET];
    let mut symbols: Vec<usize> = (0..ALPHABET).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut code: u32 = 0;
    let mut prev_len = 0u8;
    for &s in &symbols {
        let len = lengths[s];
        code <<= len - prev_len;
        codes[s] = code as u16;
        code += 1;
        prev_len = len;
    }
    codes
}

/// Flat decode table mapping [`MAX_CODE_LEN`]-bit prefixes to (symbol, length).
struct DecodeTable {
    entries: Vec<(u8, u8)>,
}

impl DecodeTable {
    fn build(table: &HuffmanTable) -> Self {
        let size = 1usize << MAX_CODE_LEN;
        let mut entries = vec![(0u8, 0u8); size];
        for symbol in 0..ALPHABET {
            let len = table.lengths[symbol];
            if len == 0 {
                continue;
            }
            let code = table.codes[symbol] as usize;
            let shift = MAX_CODE_LEN - len;
            let start = code << shift;
            let end = (code + 1) << shift;
            for entry in entries.iter_mut().take(end).skip(start) {
                *entry = (symbol as u8, len);
            }
        }
        DecodeTable { entries }
    }
}

/// First-level table bits for the table-driven decoder — chosen by the
/// `readpath` repro sweep (`repro --experiment readpath` prints ns/byte for
/// table sizes around this value): 11 bits covers every code the encoder
/// emits on realistic skew while keeping the table at 2K entries (4 KiB,
/// comfortably L1-resident); larger tables measured no faster and evict
/// more of the caller's working set.
pub const DEFAULT_DECODE_BITS: u8 = 11;

/// Two-level decode structure for the table-driven fast path: a
/// `2^bits`-entry first-level table resolves every code of ≤ `bits` bits in
/// one lookup; rarer longer codes escape to a canonical per-length search.
struct FastDecodeTable {
    /// First-level table size in bits (1..=[`MAX_CODE_LEN`]).
    bits: u8,
    /// `entries[prefix] = (symbol, len)`; `len == 0` marks an escape —
    /// either a code longer than `bits` or an invalid prefix.
    entries: Vec<(u8, u8)>,
    /// `first_code[len]` = canonical code value of the first code of each
    /// length (the canonical construction assigns codes in (length, symbol)
    /// order, so codes of one length form one contiguous value range).
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// `offset[len]` = index into `symbols` of the first symbol of `len`.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// All coded symbols in canonical (length, symbol) order.
    symbols: Vec<u8>,
}

impl FastDecodeTable {
    fn build(table: &HuffmanTable, bits: u8) -> Self {
        let bits = bits.clamp(1, MAX_CODE_LEN);
        let mut entries = vec![(0u8, 0u8); 1usize << bits];
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for symbol in 0..ALPHABET {
            let len = table.lengths[symbol];
            if len == 0 {
                continue;
            }
            count[len as usize] += 1;
            if len <= bits {
                let code = table.codes[symbol] as usize;
                let shift = bits - len;
                let start = code << shift;
                let end = (code + 1) << shift;
                for entry in entries.iter_mut().take(end).skip(start) {
                    *entry = (symbol as u8, len);
                }
            }
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut total = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_code[len] = code;
            offset[len] = total;
            code = (code + count[len]) << 1;
            total += count[len];
        }
        let mut symbols: Vec<u8> = (0..ALPHABET as u16)
            .filter(|&s| table.lengths[s as usize] > 0)
            .map(|s| s as u8)
            .collect();
        symbols.sort_by_key(|&s| (table.lengths[s as usize], s));
        FastDecodeTable {
            bits,
            entries,
            first_code,
            count,
            offset,
            symbols,
        }
    }

    /// Resolve a code longer than `self.bits` from a [`MAX_CODE_LEN`]-bit
    /// peek via the canonical per-length ranges.
    #[inline]
    fn decode_long(&self, peek: u32) -> Result<(u8, u8)> {
        for len in (self.bits + 1)..=MAX_CODE_LEN {
            let code = peek >> (MAX_CODE_LEN - len);
            let first = self.first_code[len as usize];
            if code >= first && code - first < self.count[len as usize] {
                let idx = self.offset[len as usize] + (code - first);
                return Ok((self.symbols[idx as usize], len));
            }
        }
        Err(CodecError::corrupt("invalid huffman code in stream"))
    }
}

/// Word-buffered MSB-first bit cursor for the table-driven decoder. The
/// top `nbits` bits of `bitbuf` are the next bits of the stream; the bits
/// below them are always zero, so peeking past the end of the stream
/// naturally zero-pads — exactly the semantics the branchy decoder gets
/// from `read_bits(available) << (MAX_CODE_LEN - available)`.
struct FastBits<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` to load into the buffer.
    next: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> FastBits<'a> {
    fn new(buf: &'a [u8]) -> Self {
        FastBits {
            buf,
            next: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Top up the bit buffer to ≥ 56 valid bits (or the end of the stream).
    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.next < self.buf.len() {
            self.bitbuf |= u64::from(self.buf[self.next]) << (56 - self.nbits);
            self.next += 1;
            self.nbits += 8;
        }
    }

    /// Bits of stream left (buffered + not yet loaded).
    #[inline]
    fn remaining(&self) -> usize {
        self.nbits as usize + (self.buf.len() - self.next) * 8
    }

    /// The next `k` bits, MSB-aligned to the low `k` bits of the result;
    /// zero-padded past the end of the stream. `k` in 1..=32.
    #[inline]
    fn peek(&self, k: u8) -> u64 {
        self.bitbuf >> (64 - k)
    }

    /// Drop `n` buffered bits. Callers guarantee `n <= self.nbits`.
    #[inline]
    fn consume(&mut self, n: u8) {
        self.bitbuf <<= n;
        self.nbits -= u32::from(n);
    }
}

/// Compress `input` with a canonical Huffman code trained on its own byte
/// frequencies. Output layout: varint raw length, 128-byte code-length table,
/// varint bit count, packed code bits.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 140);
    varint::write_usize(&mut out, input.len());
    if input.is_empty() {
        return out;
    }
    let mut freqs = [0u64; ALPHABET];
    for &b in input {
        freqs[b as usize] += 1;
    }
    let table = HuffmanTable::from_frequencies(&freqs);
    table.write_lengths(&mut out);
    let bits = table.encoded_bits(&freqs);
    varint::write_u64(&mut out, bits);
    let mut w = BitWriter::with_capacity((bits as usize).div_ceil(8));
    for &b in input {
        let s = b as usize;
        w.write_bits(u64::from(table.codes[s]), table.lengths[s]);
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Parsed [`compress`] header: the declared raw length plus, for non-empty
/// streams, the code-length table and the bit-packed payload.
type ParsedStream<'a> = (usize, Option<(HuffmanTable, &'a [u8])>);

/// Parse the shared header of a [`compress`] buffer: raw length, code
/// lengths, bit count. Returns `(raw_len, table, payload)`; `raw_len == 0`
/// short-circuits with an empty table.
fn parse_stream(input: &[u8]) -> Result<ParsedStream<'_>> {
    let (raw_len, pos) = varint::read_usize(input, 0)?;
    if raw_len == 0 {
        return Ok((0, None));
    }
    let (table, pos) = HuffmanTable::read_lengths(input, pos)?;
    let (bits, pos) = varint::read_u64(input, pos)?;
    let payload = &input[pos..];
    if (payload.len() as u64) * 8 < bits {
        return Err(CodecError::UnexpectedEof {
            context: "huffman payload",
        });
    }
    Ok((raw_len, Some((table, payload))))
}

/// Decompress a buffer produced by [`compress`] — the table-driven fast
/// path at [`DEFAULT_DECODE_BITS`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    decompress_with_table_bits(input, DEFAULT_DECODE_BITS)
}

/// [`decompress`] with an explicit first-level table size (clamped to
/// `1..=`[`MAX_CODE_LEN`]). Exposed so the `readpath` repro experiment can
/// sweep table bits; every size decodes identically, only speed differs.
pub fn decompress_with_table_bits(input: &[u8], table_bits: u8) -> Result<Vec<u8>> {
    let (raw_len, parsed) = parse_stream(input)?;
    let Some((table, payload)) = parsed else {
        return Ok(Vec::new());
    };
    let decode = FastDecodeTable::build(&table, table_bits);
    // Every code is at least one bit long, so the payload bounds the
    // output; the declared length is untrusted.
    let mut out = Vec::with_capacity(raw_len.min(payload.len().saturating_mul(8)));
    let mut bits = FastBits::new(payload);
    while out.len() < raw_len {
        bits.refill();
        let remaining = bits.remaining();
        if remaining == 0 {
            return Err(CodecError::UnexpectedEof {
                context: "huffman codes",
            });
        }
        // Codes never exceed MAX_CODE_LEN; near the end of the stream fewer
        // real bits remain and the peek is zero-padded, so a decoded length
        // must fit in what is actually left.
        let available = remaining.min(MAX_CODE_LEN as usize) as u8;
        let (symbol, len) = decode.entries[bits.peek(decode.bits) as usize];
        let (symbol, len) = if len != 0 {
            (symbol, len)
        } else {
            decode.decode_long(bits.peek(MAX_CODE_LEN) as u32)?
        };
        if len > available {
            return Err(CodecError::corrupt("invalid huffman code in stream"));
        }
        bits.consume(len);
        out.push(symbol);
    }
    Ok(out)
}

/// The pre-table reference decoder: one flat [`MAX_CODE_LEN`]-bit lookup
/// per symbol, peeking through a cloned [`BitReader`]. Kept as the
/// differential-testing and benchmarking baseline for the table-driven
/// fast path ([`decompress`] must produce byte-identical output).
pub fn decompress_branchy(input: &[u8]) -> Result<Vec<u8>> {
    let (raw_len, parsed) = parse_stream(input)?;
    let Some((table, payload)) = parsed else {
        return Ok(Vec::new());
    };
    let decode = DecodeTable::build(&table);
    // Every code is at least one bit long, so the payload bounds the
    // output; the declared length is untrusted.
    let mut out = Vec::with_capacity(raw_len.min(payload.len().saturating_mul(8)));
    let mut reader = BitReader::new(payload);
    while out.len() < raw_len {
        // Peek up to MAX_CODE_LEN bits (shorter near the end of the stream).
        let available = reader.remaining_bits().min(MAX_CODE_LEN as usize) as u8;
        if available == 0 {
            return Err(CodecError::UnexpectedEof {
                context: "huffman codes",
            });
        }
        let peek = {
            let mut clone = reader.clone();
            clone.read_bits(available)? << (MAX_CODE_LEN - available)
        };
        let (symbol, len) = decode.entries[peek as usize];
        if len == 0 || len > available {
            return Err(CodecError::corrupt("invalid huffman code in stream"));
        }
        reader.read_bits(len)?;
        out.push(symbol);
    }
    Ok(out)
}

/// Estimate the zero-order empirical entropy of `input` in bits per byte.
///
/// Used by the PBC theoretical-analysis tests (Section 6) and by the
/// entropy-based clustering ablation.
pub fn empirical_entropy(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 0.0;
    }
    let mut freqs = [0u64; ALPHABET];
    for &b in input {
        freqs[b as usize] += 1;
    }
    let n = input.len() as f64;
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_text() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        let compressed = compress(data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty_and_single_symbol() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
        let ones = vec![b'x'; 1000];
        let compressed = compress(&ones);
        assert!(compressed.len() < ones.len());
        assert_eq!(decompress(&compressed).unwrap(), ones);
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        let mut data = vec![b'a'; 10_000];
        data.extend_from_slice(&[b'b'; 100]);
        data.extend_from_slice(b"cdefg");
        let compressed = compress(&data);
        // ~1 bit per symbol plus the 130-byte header.
        assert!(compressed.len() < data.len() / 4);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn uniform_bytes_do_not_explode() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let compressed = compress(&data);
        // 8-bit codes + header: mild overhead only.
        assert!(compressed.len() <= data.len() + 200);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let data = b"hello hello hello hello hello";
        let mut compressed = compress(data);
        compressed.truncate(compressed.len() - 2);
        assert!(decompress(&compressed).is_err());
    }

    #[test]
    fn invalid_length_table_is_rejected() {
        // All symbols with 1-bit codes grossly violates the Kraft inequality.
        let lengths = [1u8; ALPHABET];
        assert!(HuffmanTable::from_lengths(lengths).is_err());
        let mut too_long = [0u8; ALPHABET];
        too_long[0] = MAX_CODE_LEN + 1;
        assert!(HuffmanTable::from_lengths(too_long).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; ALPHABET];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let table = HuffmanTable::from_frequencies(&freqs);
        // Check prefix-freedom pairwise on a sample of symbols.
        for a in 0..ALPHABET {
            for b in (a + 1)..ALPHABET {
                let (la, lb) = (table.lengths[a], table.lengths[b]);
                if la == 0 || lb == 0 {
                    continue;
                }
                let (short, long, ls, ll) = if la <= lb {
                    (table.codes[a], table.codes[b], la, lb)
                } else {
                    (table.codes[b], table.codes[a], lb, la)
                };
                assert_ne!(
                    u32::from(short),
                    u32::from(long) >> (ll - ls),
                    "codes for {a} and {b} are not prefix-free"
                );
            }
        }
    }

    #[test]
    fn entropy_of_uniform_and_constant_inputs() {
        let constant = vec![7u8; 100];
        assert!(empirical_entropy(&constant).abs() < 1e-9);
        let uniform: Vec<u8> = (0..=255u8).collect();
        assert!((empirical_entropy(&uniform) - 8.0).abs() < 1e-9);
        assert_eq!(empirical_entropy(&[]), 0.0);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let mut data = Vec::new();
        for i in 0..=255u8 {
            data.extend(std::iter::repeat_n(i, (i as usize % 7) + 1));
        }
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    /// A few corpora with very different code-length shapes: flat 8-bit
    /// codes, extreme skew (1-bit hot symbol + long tails), and mixed text.
    fn differential_corpora() -> Vec<Vec<u8>> {
        let mut skewed = vec![b'a'; 20_000];
        for i in 0..ALPHABET {
            skewed.extend(std::iter::repeat_n(i as u8, i % 5 + 1));
        }
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let noisy: Vec<u8> = (0..8_192)
            .map(|_| {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (lcg >> 33) as u8
            })
            .collect();
        vec![
            b"the quick brown fox jumps over the lazy dog".repeat(50),
            skewed,
            noisy,
            (0..=255u8).cycle().take(4_096).collect(),
            b"x".repeat(3_000),
            b"ab".repeat(1_500),
        ]
    }

    #[test]
    fn table_driven_decoders_agree_with_branchy_at_every_table_size() {
        for data in differential_corpora() {
            let compressed = compress(&data);
            let branchy = decompress_branchy(&compressed).unwrap();
            assert_eq!(branchy, data);
            for bits in 1..=MAX_CODE_LEN {
                assert_eq!(
                    decompress_with_table_bits(&compressed, bits).unwrap(),
                    branchy,
                    "table bits {bits}"
                );
            }
        }
    }

    #[test]
    fn table_and_branchy_decoders_reject_the_same_corrupt_streams() {
        let data = b"hello hello hello hello hello hello hello".to_vec();
        let good = compress(&data);
        // Truncations at every point of the payload, plus single bit flips:
        // the two decoders must agree that each stream is bad (the exact
        // error message may differ, failing at all must not).
        for cut in (good.len() - 6)..good.len() {
            let mut bad = good.clone();
            bad.truncate(cut);
            assert_eq!(
                decompress_branchy(&bad).is_err(),
                decompress(&bad).is_err(),
                "truncation at {cut}"
            );
        }
        for byte in 0..good.len() {
            for bit in [0u8, 4] {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let (a, b) = (decompress_branchy(&bad), decompress(&bad));
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "flip {byte}/{bit}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("decoders disagree on flip {byte}/{bit}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
