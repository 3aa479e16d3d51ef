//! The ChaCha block function (RFC 8439 §2.3) and [`ChaCha12Rng`], the keyed generator
//! the protocol parties draw from.
//!
//! Block `i` of sub-stream `(stream, index)` is a pure function of the key, the two ids
//! and `i`, so [`ChaCha12Rng::substream`] reads any sub-stream without reading the
//! others: a nonce pool reads exponent *k* from sub-stream `(kind, k)` on any thread, in
//! any order.  Unlike [`rand::rngs::StdRng`] (xoshiro256\*\*, whose state a few outputs
//! give away by linear algebra over GF(2)), the block function is a PRF.  The state
//! layout and seed expansion are this crate's own: no stream compatibility with other
//! ChaCha generators is claimed.

use rand::{CryptoRng, RngCore, SeedableRng};

use crate::pool::shard_seed;

/// The rounds the generator runs.
const ROUNDS: usize = 12;

/// "expand 32-byte k", the first four words of every state.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One quarter round on words `a`, `b`, `c`, `d` of `state` (RFC 8439 §2.2).
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha block function at `rounds` rounds (an even number; RFC 8439 uses 20):
/// the state built from `key`, `counter` and `nonce`, permuted, plus itself.
fn block(key: &[u32; 8], counter: u32, nonce: &[u32; 3], rounds: usize) -> [u32; 16] {
    let mut input = [0u32; 16];
    input[..4].copy_from_slice(&CONSTANTS);
    input[4..12].copy_from_slice(key);
    input[12] = counter;
    input[13..].copy_from_slice(nonce);
    let mut state = input;
    for _ in 0..rounds / 2 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (word, input) in state.iter_mut().zip(input) {
        *word = word.wrapping_add(input);
    }
    state
}

/// A keyed generator running the block function at 12 rounds over one sub-stream
/// `(stream, index)` of its key: 2³² blocks of 64 bytes.  [`SeedableRng`] builds read
/// sub-stream `(0, 0)`; [`ChaCha12Rng::substream`] reads any other under the same key.
#[derive(Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    /// The state's last three words: the stream id, then the index's low and high words.
    nonce: [u32; 3],
    /// The block after the buffered one.
    counter: u32,
    buffer: [u8; 64],
    /// Bytes of `buffer` already read.
    used: usize,
}

impl std::fmt::Debug for ChaCha12Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("ChaCha12Rng { .. }")
    }
}

impl ChaCha12Rng {
    /// Sub-stream `(stream, index)` under this generator's key, from its first byte:
    /// what it yields depends on the key and the two ids alone.
    pub fn substream(&self, stream: u32, index: u64) -> Self {
        let nonce = [stream, index as u32, (index >> 32) as u32];
        ChaCha12Rng { key: self.key, nonce, counter: 0, buffer: [0; 64], used: 64 }
    }
}

impl RngCore for ChaCha12Rng {
    fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_le_bytes(bytes)
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        while !dest.is_empty() {
            if self.used == self.buffer.len() {
                let words = block(&self.key, self.counter, &self.nonce, ROUNDS);
                for (bytes, word) in self.buffer.chunks_exact_mut(4).zip(words) {
                    bytes.copy_from_slice(&word.to_le_bytes());
                }
                self.counter = self.counter.checked_add(1).expect("a sub-stream is 2^32 blocks");
                self.used = 0;
            }
            let take = dest.len().min(self.buffer.len() - self.used);
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            dest = rest;
        }
    }
}

impl CryptoRng for ChaCha12Rng {}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    /// The generator keyed by `seed`'s eight little-endian words.
    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        ChaCha12Rng { key, nonce: [0; 3], counter: 0, buffer: [0; 64], used: 64 }
    }

    /// The generator keyed by four [`shard_seed`] mixes of `state`.  A 64-bit seed
    /// gives at most 2⁶⁴ keys, however it is spread.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = [0u8; 32];
        for (i, bytes) in seed.chunks_exact_mut(8).enumerate() {
            bytes.copy_from_slice(&shard_seed(state, i as u64 + 1).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_quarter_round_vector() {
        // §2.1.1.
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[..4], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }

    #[test]
    fn rfc8439_block_function_vector_at_20_rounds() {
        // §2.3.2: key 00 01 .. 1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00, counter 1.
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            let at = 4 * i as u8;
            *word = u32::from_le_bytes([at, at + 1, at + 2, at + 3]);
        }
        let nonce = [0x0900_0000, 0x4a00_0000, 0];
        let expected = [
            0xe4e7_f110,
            0x1559_3bd1,
            0x1fdd_0f50,
            0xc471_20a3, //
            0xc7f4_d1c7,
            0x0368_c033,
            0x9aaa_2204,
            0x4e6c_d4c3, //
            0x4664_82d2,
            0x09aa_9f07,
            0x05d7_c214,
            0xa202_8bd9, //
            0xd19c_12b5,
            0xb94e_16de,
            0xe883_d0cb,
            0x4e3c_50a2,
        ];
        assert_eq!(block(&key, 1, &nonce, 20), expected);
    }

    #[test]
    fn the_first_block_at_12_rounds_is_pinned() {
        // Key 00 01 .. 1f, sub-stream (0, 0): this crate's own vector, recorded once, so
        // that the round count and the state layout cannot move unseen.
        let mut seed = [0u8; 32];
        for (i, byte) in seed.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let mut rng = ChaCha12Rng::from_seed(seed);
        let mut first = [0u8; 64];
        rng.fill_bytes(&mut first);
        assert_eq!(
            crate::encoding::hex_encode(&first),
            "f231f9ffd17ac65e4405f325d7e940aa4913601fc2be46bce9c3cac3d91a1a36\
             5940b308c2857c9f29d6e2548528d49a612b1b0ae6765d16e585aefb46368879"
        );
    }

    #[test]
    fn a_generator_reads_its_blocks_in_order_however_it_is_asked() {
        let mut seed = [7u8; 32];
        seed[0] = 1;
        let mut bytes = ChaCha12Rng::from_seed(seed);
        let mut words = bytes.clone();
        let mut long = [0u8; 200];
        bytes.fill_bytes(&mut long[..3]);
        bytes.fill_bytes(&mut long[3..131]);
        bytes.fill_bytes(&mut long[131..]);
        let mut read = Vec::new();
        read.extend_from_slice(&words.next_u32().to_le_bytes());
        while read.len() < long.len() {
            read.extend_from_slice(&words.next_u64().to_le_bytes());
        }
        assert_eq!(read[..long.len()], long);
    }

    #[test]
    fn an_addressed_substream_does_not_depend_on_the_order_it_is_read_in() {
        let key = ChaCha12Rng::seed_from_u64(42);
        let read = |stream: u32, index: u64| {
            let mut out = [0u8; 80];
            key.substream(stream, index).fill_bytes(&mut out);
            out
        };
        let forward: Vec<[u8; 80]> = (0..40).map(|i| read(3, i)).collect();
        let mut backward: Vec<[u8; 80]> = (0..40).rev().map(|i| read(3, i)).collect();
        backward.reverse();
        assert!(forward == backward);
        // A generator that has read ahead hands out the same sub-streams.
        let mut used = key.clone();
        let mut skip = [0u8; 1000];
        used.fill_bytes(&mut skip);
        assert!((0..40).all(|i| {
            let mut out = [0u8; 80];
            used.substream(3, i).fill_bytes(&mut out);
            out == forward[i as usize]
        }));
        // Sub-streams of other ids, indices or keys differ.
        assert_ne!(read(3, 0), read(4, 0));
        assert_ne!(read(3, 0), read(3, 1 << 32));
        let mut other = [0u8; 80];
        ChaCha12Rng::seed_from_u64(43).substream(3, 0).fill_bytes(&mut other);
        assert_ne!(read(3, 0), other);
    }

    #[test]
    fn sub_stream_zero_is_the_seeded_generator() {
        let mut seeded = ChaCha12Rng::seed_from_u64(9);
        let mut addressed = seeded.substream(0, 0);
        let _ = seeded.next_u64();
        let mut fresh = ChaCha12Rng::seed_from_u64(9);
        assert_eq!(fresh.next_u64(), addressed.next_u64());
    }
}
