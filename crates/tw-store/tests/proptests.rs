//! Property tests for the one on-disk frame codec (`tw_store::frame`):
//! payloads round-trip under each magic, and every strict prefix or
//! single-bit flip of a valid file is a typed `corrupt` error, never a
//! panic.

use proptest::prelude::*;
use std::io::Cursor;
use tw_store::frame::{encode, FrameReader, StoreError};

const MAGICS: [[u8; 4]; 3] = [*b"TWCK", *b"TWSG", *b"TWSM"];

/// Random files: one to three payloads of up to 48 bytes under one magic.
fn file() -> impl Strategy<Value = ([u8; 4], Vec<Vec<u8>>)> {
    (
        0usize..MAGICS.len(),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..4),
    )
        .prop_map(|(magic, payloads)| (MAGICS[magic], payloads))
}

fn encode_all(magic: [u8; 4], payloads: &[Vec<u8>]) -> Vec<u8> {
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut bytes = Vec::new();
    encode(&mut bytes, magic, &refs).expect("writing to a Vec cannot fail");
    bytes
}

/// The full read every loader does: each frame CRC-checked, nothing after.
fn read_all(bytes: &[u8], magic: [u8; 4], frames: usize) -> Result<Vec<Vec<u8>>, StoreError> {
    let mut reader = FrameReader::new(Cursor::new(bytes), magic)?;
    let payloads = (0..frames)
        .map(|_| reader.frame())
        .collect::<Result<Vec<_>, _>>()?;
    reader.finish()?;
    Ok(payloads)
}

/// The segment-index read: skip the first frame unchecked, read the rest.
fn read_skipping_first(
    bytes: &[u8],
    magic: [u8; 4],
    frames: usize,
) -> Result<Vec<Vec<u8>>, StoreError> {
    let mut reader = FrameReader::new(Cursor::new(bytes), magic)?;
    reader.skip_frame()?;
    let payloads = (1..frames)
        .map(|_| reader.frame())
        .collect::<Result<Vec<_>, _>>()?;
    reader.finish()?;
    Ok(payloads)
}

proptest! {
    #[test]
    fn payloads_round_trip_under_each_magic((magic, payloads) in file()) {
        let bytes = encode_all(magic, &payloads);
        prop_assert_eq!(read_all(&bytes, magic, payloads.len()).unwrap(), payloads.clone());
        prop_assert_eq!(
            read_skipping_first(&bytes, magic, payloads.len()).unwrap(),
            payloads[1..].to_vec()
        );
        for other in MAGICS.into_iter().filter(|&m| m != magic) {
            let err = read_all(&bytes, other, payloads.len()).unwrap_err();
            prop_assert!(matches!(err, StoreError::BadMagic), "got {}", err);
        }
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error((magic, payloads) in file()) {
        let bytes = encode_all(magic, &payloads);
        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            let err = read_all(prefix, magic, payloads.len()).unwrap_err();
            prop_assert_eq!(err.reason(), "corrupt", "prefix {}: {}", len, err);
            let err = read_skipping_first(prefix, magic, payloads.len()).unwrap_err();
            prop_assert_eq!(err.reason(), "corrupt", "prefix {}: {}", len, err);
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error((magic, payloads) in file()) {
        let bytes = encode_all(magic, &payloads);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = read_all(&flipped, magic, payloads.len()).unwrap_err();
            prop_assert_eq!(err.reason(), "corrupt", "bit {}: {}", bit, err);
            // The skipped frame is not CRC-checked, so a flip inside it may
            // read back cleanly; it must still never panic.
            let _ = read_skipping_first(&flipped, magic, payloads.len());
        }
    }
}
