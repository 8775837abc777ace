//! In-place text writers shared by the exporters, and the JSON string
//! escaper of every crate that links this one (`vampos-chaos` quotes
//! reproducer strings with it).
//!
//! Every helper appends to a caller-owned `String`: an export of 400k spans
//! writes half a million lines, and a `format!` (or an escaped copy) per
//! field was most of what the Chrome-trace export cost.

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                            2021222324252627282930313233343536373839\
                            4041424344454647484950515253545556575859\
                            6061626364656667686970717273747576777879\
                            8081828384858687888990919293949596979899";

/// The two ASCII digits of `n < 100`.
fn pair(n: u64) -> [u8; 2] {
    let at = n as usize * 2;
    [PAIRS[at], PAIRS[at + 1]]
}

/// A number rendered in decimal on the stack: the same text as
/// `n.to_string()` (or, from [`Digits::micros`], as
/// `format!("{}.{:03}", ns / 1_000, ns % 1_000)`), without the allocation.
///
/// Invariant: `buf[start..end]` holds only ASCII digits and `.`; the fields
/// are written by the constructors alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digits {
    buf: [u8; 24],
    start: u8,
    end: u8,
}

impl Digits {
    /// `n` in decimal.
    pub(crate) fn new(n: u64) -> Digits {
        Digits::ending_at(n, 24)
    }

    /// Integer nanoseconds as a microsecond JSON number token with
    /// nanosecond precision (`2500` ns → `2.500`).
    fn micros(ns: u64) -> Digits {
        let mut digits = Digits::ending_at(ns / 1_000, 20);
        let rem = ns % 1_000;
        let [tens, ones] = pair(rem % 100);
        digits.buf[20..].copy_from_slice(&[b'.', b'0' + (rem / 100) as u8, tens, ones]);
        digits.end = 24;
        digits
    }

    /// `n` in decimal, its last digit at `buf[end - 1]`; `end >= 20`.
    fn ending_at(mut n: u64, end: usize) -> Digits {
        let mut buf = [0u8; 24];
        let mut at = end;
        while n >= 100 {
            at -= 2;
            buf[at..at + 2].copy_from_slice(&pair(n % 100));
            n /= 100;
        }
        if n >= 10 {
            at -= 2;
            buf[at..at + 2].copy_from_slice(&pair(n));
        } else {
            at -= 1;
            buf[at] = b'0' + n as u8;
        }
        Digits {
            buf,
            start: at as u8,
            end: end as u8,
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        let text = &self.buf[usize::from(self.start)..usize::from(self.end)];
        // SAFETY: by the type's invariant the bytes are ASCII digits and
        // `.`, which are valid UTF-8; checking them again on every number
        // of a 70 MiB export is what this skips.
        unsafe { std::str::from_utf8_unchecked(text) }
    }
}

/// Appends `n` in decimal.
pub(crate) fn push_u64(out: &mut String, n: u64) {
    out.push_str(Digits::new(n).as_str());
}

/// Appends integer nanoseconds as a microsecond JSON number token with
/// nanosecond precision (`2500` ns → `2.500`).
pub(crate) fn push_micros(out: &mut String, ns: u64) {
    out.push_str(Digits::micros(ns).as_str());
}

/// Whether `b` must be escaped inside a JSON string literal.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` escaped for a JSON string literal. A string with nothing to
/// escape — almost every name and value — is found by one branch-free scan
/// and copied whole; otherwise runs of plain characters are copied whole
/// between the escapes.
pub fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.push_str(s);
        return;
    }
    let mut plain_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&s[plain_from..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                for nibble in [b >> 4, b & 0xf] {
                    out.push(char::from_digit(nibble.into(), 16).expect("a nibble is a hex digit"));
                }
            }
        }
        plain_from = i + 1;
    }
    out.push_str(&s[plain_from..]);
}

/// `s` escaped for a JSON string literal, as a new `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_render_like_display() {
        let mut numbers = vec![
            0,
            7,
            9,
            10,
            99,
            100,
            999,
            1_000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        numbers.extend((0..20).map(|e| 10u64.pow(e)));
        numbers.extend((1..20).map(|e| 10u64.pow(e) - 1));
        for n in numbers {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn micros_keep_a_three_digit_nanosecond_remainder() {
        for rem in [0, 5, 50, 999] {
            for micros in [0, 7, 10, 99, 123_456, u64::MAX / 1_000 - 1] {
                let ns = micros * 1_000 + rem;
                let mut out = String::new();
                push_micros(&mut out, ns);
                assert_eq!(out, format!("{}.{:03}", ns / 1_000, ns % 1_000));
            }
        }
    }

    #[test]
    fn escapes_between_plain_runs_keep_every_byte() {
        assert_eq!(escape(""), "");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("\"a\\"), "\\\"a\\\\");
        assert_eq!(escape("é\u{1f}ü\n"), "é\\u001fü\\n");
        assert_eq!(escape("\r\t\u{1}\u{7f}"), "\\r\\t\\u0001\u{7f}");
    }
}
