//! FIPS-197 AES block cipher (128/192/256-bit keys).
//!
//! TAO's key-management scheme (paper Sec. 3.4, Fig. 5) encrypts the
//! working key with AES-256 under the locking key at design time, stores
//! the ciphertext in on-chip NVM, and decrypts it at power-up. This module
//! is that AES: a portable, table-based implementation validated against
//! the FIPS-197 and NIST SP 800-38A vectors in the test suite.
//!
//! This implementation is **not** constant-time; it models the on-chip
//! decryption block functionally, which is all the reproduction needs.

/// AES S-box.
const SBOX: [u8; 256] = {
    // Computed at compile time from the multiplicative inverse in GF(2^8)
    // followed by the affine transform.
    let mut sbox = [0u8; 256];
    // GF(2^8) inverse via exhaustive multiply (compile-time friendly).
    const fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        let mut i = 0;
        while i < 8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
            i += 1;
        }
        p
    }
    const fn ginv(a: u8) -> u8 {
        if a == 0 {
            return 0;
        }
        let mut x = 1u8;
        loop {
            if gmul(a, x) == 1 {
                return x;
            }
            x = x.wrapping_add(1);
        }
    }
    let mut i = 0usize;
    while i < 256 {
        let inv = ginv(i as u8);
        let mut y = inv;
        let mut x = inv;
        let mut r = 1;
        while r < 5 {
            x = x.rotate_left(1);
            y ^= x;
            r += 1;
        }
        sbox[i] = y ^ 0x63;
        i += 1;
    }
    sbox
};

/// Inverse S-box (derived from [`SBOX`] at compile time).
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

fn gmul_rt(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut a = a;
    let mut b = b;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }
}

/// An expanded AES key ready to encrypt/decrypt 16-byte blocks.
#[derive(Debug, Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    size: KeySize,
}

impl Aes {
    /// Expands `key`; its length selects AES-128/192/256.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the key is not 16, 24 or 32 bytes.
    pub fn new(key: &[u8]) -> Result<Aes, String> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            n => return Err(format!("AES key must be 16/24/32 bytes, got {n}")),
        };
        let nk = size.nk();
        let nr = size.rounds();
        let mut w = vec![[0u8; 4]; 4 * (nr + 1)];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..4 * (nr + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = (0..=nr)
            .map(|r| {
                let mut rk = [0u8; 16];
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
                rk
            })
            .collect();
        Ok(Aes { round_keys, size })
    }

    /// The key size in use.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        add_round_key(block, &self.round_keys[0]);
        for r in 1..nr {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[nr]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        add_round_key(block, &self.round_keys[nr]);
        for r in (1..nr).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypts `data` in ECB mode, zero-padding to a block multiple.
    /// (The NVM image is a fixed-width key block, not a general message;
    /// ECB over independent working-key words matches the paper's Fig. 5.)
    pub fn encrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        let pad = (16 - out.len() % 16) % 16;
        out.extend(std::iter::repeat_n(0, pad));
        for chunk in out.chunks_exact_mut(16) {
            let mut b = [0u8; 16];
            b.copy_from_slice(chunk);
            self.encrypt_block(&mut b);
            chunk.copy_from_slice(&b);
        }
        out
    }

    /// Decrypts `data` (a multiple of 16 bytes) in ECB mode.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a multiple of 16 bytes.
    pub fn decrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len() % 16, 0, "ECB ciphertext must be block-aligned");
        let mut out = data.to_vec();
        for chunk in out.chunks_exact_mut(16) {
            let mut b = [0u8; 16];
            b.copy_from_slice(chunk);
            self.decrypt_block(&mut b);
            chunk.copy_from_slice(&b);
        }
        out
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = INV_SBOX[*s as usize];
    }
}

/// State layout: byte `state[r + 4c]` is row `r`, column `c` (FIPS-197).
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = gmul_rt(col[0], 0x0e)
            ^ gmul_rt(col[1], 0x0b)
            ^ gmul_rt(col[2], 0x0d)
            ^ gmul_rt(col[3], 0x09);
        state[4 * c + 1] = gmul_rt(col[0], 0x09)
            ^ gmul_rt(col[1], 0x0e)
            ^ gmul_rt(col[2], 0x0b)
            ^ gmul_rt(col[3], 0x0d);
        state[4 * c + 2] = gmul_rt(col[0], 0x0d)
            ^ gmul_rt(col[1], 0x09)
            ^ gmul_rt(col[2], 0x0e)
            ^ gmul_rt(col[3], 0x0b);
        state[4 * c + 3] = gmul_rt(col[0], 0x0b)
            ^ gmul_rt(col[1], 0x0d)
            ^ gmul_rt(col[2], 0x09)
            ^ gmul_rt(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_known_entries() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
    }

    /// FIPS-197 Appendix C.1: AES-128.
    #[test]
    fn fips197_aes128() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key).unwrap();
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    /// FIPS-197 Appendix C.2: AES-192.
    #[test]
    fn fips197_aes192() {
        let key = hex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let aes = Aes::new(&key).unwrap();
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    /// FIPS-197 Appendix C.3: AES-256.
    #[test]
    fn fips197_aes256() {
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.key_size(), KeySize::Aes256);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    /// NIST SP 800-38A F.1.5 (ECB-AES256.Encrypt, first block).
    #[test]
    fn sp800_38a_ecb_aes256() {
        let key = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let aes = Aes::new(&key).unwrap();
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("6bc1bee22e409f96e93d7e117393172a"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("f3eed1bdb5d2a03c064b5a7e3db181f8"));
    }

    #[test]
    fn ecb_roundtrip_with_padding() {
        let aes = Aes::new(&[7u8; 32]).unwrap();
        let msg: Vec<u8> = (0..37).collect(); // not block aligned
        let ct = aes.encrypt_ecb(&msg);
        assert_eq!(ct.len(), 48);
        let pt = aes.decrypt_ecb(&ct);
        assert_eq!(&pt[..37], &msg[..]);
        assert!(pt[37..].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_key_sizes_rejected() {
        assert!(Aes::new(&[0u8; 15]).is_err());
        assert!(Aes::new(&[0u8; 33]).is_err());
        assert!(Aes::new(&[0u8; 24]).is_ok());
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes::new(&[1u8; 32]).unwrap();
        let b = Aes::new(&[2u8; 32]).unwrap();
        let mut x = [0x42u8; 16];
        let mut y = [0x42u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }
}
