package api

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONFloat appends a float64 exactly as encoding/json does: shortest
// round-trip form, 'f' format in [1e-6, 1e21), 'e' outside it with the
// exponent's leading zero stripped (e-09 → e-9).
func AppendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// copiedAsIs marks the bytes AppendJSONString passes through untouched:
// printable ASCII but for the quote, the backslash and the HTML three.
var copiedAsIs = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// Word-at-a-time byte tests. With w eight bytes of input, some byte of
// zeroIn(w) has its high bit set exactly when some byte of w is zero, and
// some byte of controlOrNonASCII(w) exactly when some byte of w is below
// ' ' or above 0x7f. Which byte it is they do not say reliably (a borrow
// can mark the byte above a true one), so a scan that meets one goes on a
// byte at a time.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

func zeroIn(w uint64) uint64            { return (w - lsb) &^ w }
func controlOrNonASCII(w uint64) uint64 { return (w - lsb*' ') | w }

// copiedWords returns where, from i on, the first eight-byte word of s
// that holds a byte AppendJSONString does not copy as it is starts, or the
// first i+8k with fewer than eight bytes left. '<' and '>' differ in one
// bit, and so do '"' and '&': a byte is one of a pair when it matches the
// pair with that bit masked off.
func copiedWords(s string, i int) int {
	const ltGt, quoteAmp = '<' ^ '>', '"' ^ '&'
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8] // one bounds check, one load
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if (controlOrNonASCII(w)|zeroIn(w^lsb*'\\')|
			zeroIn((w^lsb*'<')&(lsb*(0xff^ltGt)))|
			zeroIn((w^lsb*'"')&(lsb*(0xff^quoteAmp))))&msb != 0 {
			break
		}
	}
	return i
}

// AppendJSONString appends a JSON string literal exactly as encoding/json's
// default (HTML-escaping) encoder does: ", backslash and control characters
// escaped (\n \r \t \b \f named; the rest as \u00xx), the HTML characters
// <, > and & as \u003c / \u003e / \u0026, invalid UTF-8 bytes as the
// \ufffd escape, and U+2028/U+2029 (legal JSON, illegal JavaScript) as
// \u2028 / \u2029. Runs that need no escape are found eight bytes at a time
// and copied whole.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; ; {
		i = copiedWords(s, i)
		for i < len(s) && copiedAsIs[s[i]] { // at most eight bytes
			i++
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
