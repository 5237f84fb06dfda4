//! Hostile input: every public block decoder must return `Ok` or `Err` on
//! arbitrary bytes — never panic, and never abort on an allocation sized
//! from an untrusted length header.
//!
//! Per codec: 3000 random buffers of up to 300 bytes, plus 3000 valid
//! streams with 1–3 bytes overwritten (a quarter of them also truncated).
//! Separately, every decoder whose stream opens with a varint length header
//! is fed valid streams whose header claims a huge length.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pbc::codecs::traits::{Codec, DictCodec, TrainableCodec};
use pbc::codecs::{huffman, varint, FsstCodec, Lz4Like, LzmaLike, SnappyLike, ZstdLike};
use pbc::core::{PbcCompressor, PbcConfig};
use pbc::datagen::Dataset;

const CASES: usize = 3000;
const MAX_RANDOM_LEN: usize = 300;

/// SplitMix64: a deterministic stream, so any failure replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

type Encode<'a> = Box<dyn Fn(&[u8]) -> Vec<u8> + 'a>;
type Decode<'a> = Box<dyn Fn(&[u8]) -> bool + 'a>;

/// One decoder under test: its name, how to encode a valid stream, and how
/// to decode (returning whether decoding succeeded).
struct Subject<'a> {
    name: &'static str,
    encode: Encode<'a>,
    decode: Decode<'a>,
}

fn codec_subject<'a>(name: &'static str, codec: &'a dyn Codec) -> Subject<'a> {
    Subject {
        name,
        encode: Box::new(move |input| codec.compress(input)),
        decode: Box::new(move |input| codec.decompress(input).is_ok()),
    }
}

fn corpus() -> Vec<Vec<u8>> {
    let mut records = Dataset::Hdfs.generate(200, 11);
    records.extend(Dataset::Android.generate(200, 12));
    records
}

/// Valid inputs of varied shape: single records, runs of records, and
/// repetitive filler (long matches exercise the length-extension paths).
fn plaintexts(records: &[Vec<u8>], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = records.iter().take(40).cloned().collect();
    for _ in 0..40 {
        let start = rng.below(records.len());
        let take = 1 + rng.below(8);
        out.push(records[start..(start + take).min(records.len())].concat());
    }
    out.push(vec![b'a'; 5000]);
    out.push(b"abcabcabd".repeat(300));
    out.push(Vec::new());
    out
}

fn check(subject: &Subject<'_>, input: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| (subject.decode)(input)));
    assert!(
        outcome.is_ok(),
        "{} panicked on a {what} input of {} bytes: {:02x?}",
        subject.name,
        input.len(),
        input
    );
}

fn hammer(subject: &Subject<'_>, plaintexts: &[Vec<u8>], seed: u64) {
    let mut rng = Rng(seed);
    for _ in 0..CASES {
        let len = rng.below(MAX_RANDOM_LEN + 1);
        check(subject, &rng.bytes(len), "random");
    }
    let streams: Vec<Vec<u8>> = plaintexts.iter().map(|p| (subject.encode)(p)).collect();
    for stream in &streams {
        assert!(
            (subject.decode)(stream),
            "{} rejects its own stream",
            subject.name
        );
    }
    for _ in 0..CASES {
        let mut stream = streams[rng.below(streams.len())].clone();
        if stream.is_empty() {
            stream.push(0);
        }
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(stream.len());
            stream[at] = rng.next() as u8;
        }
        if rng.below(4) == 0 {
            stream.truncate(rng.below(stream.len() + 1));
        }
        check(subject, &stream, "mutated");
    }
}

#[test]
fn no_decoder_panics_or_aborts_on_hostile_bytes() {
    let records = corpus();
    let mut rng = Rng(7);
    let plain = plaintexts(&records, &mut rng);
    let samples: Vec<&[u8]> = records.iter().step_by(4).map(|r| r.as_slice()).collect();
    let dict: Vec<u8> = records.iter().take(20).flatten().copied().collect();

    let lz4 = Lz4Like::new();
    let snappy = SnappyLike::new();
    let lzma = LzmaLike::default();
    let zstd = ZstdLike::default();
    let fsst = FsstCodec::train(&samples);
    let pbc = PbcCompressor::train(&samples, &PbcConfig::small());
    let pbc_f = PbcCompressor::train_fsst(&samples, &PbcConfig::small());
    let subjects = [
        codec_subject("LZ4-like", &lz4),
        codec_subject("Snappy-like", &snappy),
        codec_subject("LZMA-like", &lzma),
        codec_subject("Zstd-like", &zstd),
        codec_subject("FSST", &fsst),
        codec_subject("PBC", &pbc),
        codec_subject("PBC_F", &pbc_f),
        Subject {
            name: "Huffman",
            encode: Box::new(huffman::compress),
            decode: Box::new(|input| huffman::decompress(input).is_ok()),
        },
        Subject {
            name: "LZ4-like with dictionary",
            encode: Box::new(|input| lz4.compress_with_dict(input, &dict)),
            decode: Box::new(|input| lz4.decompress_with_dict(input, &dict).is_ok()),
        },
        Subject {
            name: "Zstd-like with dictionary",
            encode: Box::new(|input| zstd.compress_with_dict(input, &dict)),
            decode: Box::new(|input| zstd.decompress_with_dict(input, &dict).is_ok()),
        },
    ];
    for (i, subject) in subjects.iter().enumerate() {
        hammer(subject, &plain, 1000 + i as u64);
    }
}

#[test]
fn huge_declared_lengths_are_rejected_not_allocated() {
    let lz4 = Lz4Like::new();
    let snappy = SnappyLike::new();
    let lzma = LzmaLike::default();
    let zstd = ZstdLike::default();
    let subjects = [
        codec_subject("LZ4-like", &lz4),
        codec_subject("Snappy-like", &snappy),
        codec_subject("LZMA-like", &lzma),
        codec_subject("Zstd-like", &zstd),
        Subject {
            name: "Huffman",
            encode: Box::new(huffman::compress),
            decode: Box::new(|input| huffman::decompress(input).is_ok()),
        },
    ];
    let plain = corpus()[..20].concat();
    for subject in &subjects {
        let stream = (subject.encode)(&plain);
        let (_, body) = varint::read_usize(&stream, 0).unwrap();
        for declared in [1 << 31, 1 << 40, usize::MAX >> 1, usize::MAX] {
            let mut lying = Vec::new();
            varint::write_usize(&mut lying, declared);
            lying.extend_from_slice(&stream[body..]);
            let outcome = catch_unwind(AssertUnwindSafe(|| (subject.decode)(&lying)));
            assert_eq!(
                outcome.ok(),
                Some(false),
                "{} must reject a declared length of {declared}",
                subject.name
            );
        }
    }
}
