//! Wire-framing property tests: arbitrary payload sequences round-trip
//! through `write_frame`/`read_frame`, the vectored writer survives a
//! socket that takes a few bytes at a time, and every corruption mode
//! yields a structured error — never a panic, never a hang.

use std::io::{IoSlice, Write};

use javaflow_server::protocol::{
    batch_frame, batch_frame_head, read_frame, write_frame, write_frame_parts, FrameError,
    BATCH_FRAME_TAIL, MAX_REQUEST_FRAME,
};
use javaflow_workloads::rng::StdRng;

#[test]
fn random_payload_sequences_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x6a76_666c);
    for round in 0..200 {
        let count = rng.gen_range(0..8usize);
        let payloads: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let len = rng.gen_range(0..2000usize);
                (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect()
            })
            .collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = &wire[..];
        for (i, p) in payloads.iter().enumerate() {
            let got = read_frame(&mut r, MAX_REQUEST_FRAME)
                .unwrap_or_else(|e| panic!("round {round} frame {i}: {e:?}"))
                .expect("frame present");
            assert_eq!(&got, p, "round {round} frame {i}");
        }
        assert!(
            read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().is_none(),
            "clean EOF after {count}"
        );
    }
}

#[test]
fn every_truncation_point_errors_cleanly() {
    // One valid two-frame stream, cut at every byte boundary: the reader
    // must return the intact prefix frames and then either a clean EOF
    // (cut at a boundary) or `Truncated` — never panic or block.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"{\"kind\": \"ping\", \"id\": 1}").unwrap();
    write_frame(&mut wire, &[0xABu8; 37]).unwrap();
    for cut in 0..wire.len() {
        let mut r = &wire[..cut];
        loop {
            match read_frame(&mut r, MAX_REQUEST_FRAME) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(FrameError::Truncated) => break,
                Err(e) => panic!("cut {cut}: unexpected {e:?}"),
            }
        }
    }
}

#[test]
fn random_garbage_prefixes_never_panic() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let len = rng.gen_range(0..64usize);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
        let mut r = &junk[..];
        // Drain until EOF or error; any outcome but a panic/hang is fine.
        while let Ok(Some(_)) = read_frame(&mut r, 4096) {}
    }
}

#[test]
fn the_frame_cap_is_exact() {
    let payload = vec![7u8; 100];
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut r = &wire[..];
    assert!(matches!(read_frame(&mut r, 99), Err(FrameError::Oversized(100))));
    let mut r = &wire[..];
    assert_eq!(read_frame(&mut r, 100).unwrap().unwrap(), payload);
}

/// A writer that takes 1, 2, then 3 bytes per call (cycling), possibly
/// spread across the slices of a vectored write, and is interrupted
/// every seventh call.
struct Trickle {
    out: Vec<u8>,
    calls: usize,
}

impl Trickle {
    fn budget(&mut self) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(7) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        Ok(1 + self.calls % 3)
    }
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.budget()?.min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let mut left = self.budget()?;
        let mut n = 0;
        for b in bufs {
            let take = left.min(b.len());
            self.out.extend_from_slice(&b[..take]);
            n += take;
            left -= take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_vectored_writer_survives_short_writes() {
    let payload = "[{\"record\": 0, \"samples\": []}]";
    let head = batch_frame_head(7, 3, 16);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..50 {
        let mut w = Trickle { out: Vec::new(), calls: rng.gen_range(0..7usize) };
        let parts = [head.as_bytes(), b"", payload.as_bytes(), BATCH_FRAME_TAIL.as_bytes()];
        write_frame_parts(&mut w, &parts).unwrap();
        write_frame(&mut w, b"{}").unwrap();
        let mut r = &w.out[..];
        let frame = read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().expect("batch frame");
        assert_eq!(frame, batch_frame(7, 3, 16, payload).as_bytes());
        assert_eq!(read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().unwrap(), b"{}");
        assert!(read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().is_none());
    }
}

#[test]
fn a_frame_is_one_write_when_the_socket_takes_it() {
    /// Counts vectored writes; takes everything offered.
    struct Counting(usize, Vec<u8>);
    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.0 += 1;
            bufs.iter().for_each(|b| self.1.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let payload = b"{\"kind\": \"ping\", \"id\": 1}";
    let mut w = Counting(0, Vec::new());
    write_frame(&mut w, payload).unwrap();
    assert_eq!(w.0, 1, "length prefix and payload leave together");
    assert_eq!(w.1[..4], (payload.len() as u32).to_be_bytes());
    assert_eq!(&w.1[4..], payload);
}
