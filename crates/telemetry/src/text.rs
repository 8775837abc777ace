//! In-place text writers shared by the exporters, and the JSON string
//! escaper of every crate that links this one (`vampos-chaos` quotes
//! reproducer strings with it).
//!
//! Every helper appends to a caller-owned `String`: an export of 400k spans
//! writes half a million lines, and a `format!` (or an escaped copy) per
//! field was most of what the Chrome-trace export cost.

/// Appends `n` in decimal.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `s` escaped for a JSON string literal. Runs of plain characters
/// are copied whole; almost every name and attribute value is one run.
pub fn push_escaped(out: &mut String, s: &str) {
    let mut plain_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&s[plain_from..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            for nibble in [b >> 4, b & 0xf] {
                out.push(char::from_digit(nibble.into(), 16).expect("a nibble is a hex digit"));
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
        for n in [0, 7, 10, 999, 1_000, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn escapes_between_plain_runs_keep_every_byte() {
        assert_eq!(escape(""), "");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("\"a\\"), "\\\"a\\\\");
        assert_eq!(escape("é\u{1f}ü\n"), "é\\u001fü\\n");
    }
}
