package blob

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// A manifest has exactly one byte form: the one encoding/json gives the
// Manifest struct (field order name, version, chunks; no whitespace;
// HTML-safe string escapes). Encode writes it by hand, and ParseManifest
// accepts nothing else: it takes a decoded manifest only if Encode gives
// back the input, so the canonical form is defined once, by Encode. The
// encoding/json oracle lives in the tests.

const hexDigits = "0123456789abcdef"

// Encode renders the canonical form. It is byte for byte what json.Marshal
// produces for m, so manifest digests and the Metadata records naming them
// are those of a json.Marshal encoding.
func (m Manifest) Encode() []byte {
	b := make([]byte, 0, 48+len(m.Name)+48*len(m.Chunks))
	b = append(b, `{"name":`...)
	b = appendString(b, m.Name)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, m.Version, 10)
	b = append(b, `,"chunks":`...)
	if m.Chunks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range m.Chunks {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"digest":`...)
			b = strconv.AppendUint(b, uint64(r.Digest), 10)
			b = append(b, `,"size":`...)
			b = strconv.AppendInt(b, int64(r.Size), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// literal reports whether encoding/json writes the ASCII byte c unescaped
// in a string (it escapes control bytes, the quote, the backslash, and the
// HTML-sensitive <, > and &).
func literal(c byte) bool {
	return c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as encoding/json quotes it: short escapes for \b,
// \f, \n, \r, \t, the quote and the backslash; \u00XX for other control
// bytes and for <, > and &; \u2028 and \u2029 for the JavaScript line
// separators; \ufffd for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if literal(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ParseManifest decodes and validates a manifest. It accepts exactly the
// bytes Encode produces: the decoder reads the fixed layout plainly, and the
// result counts only if it re-encodes to the input, so the input's digest is
// m.Digest(). A name with invalid UTF-8 has no such encoding (json's \ufffd
// decodes to a valid rune), and Validate refuses it.
func ParseManifest(data []byte) (Manifest, error) {
	m, err := decodeManifest(data)
	if err != nil {
		return Manifest{}, err
	}
	if !bytes.Equal(m.Encode(), data) {
		return Manifest{}, fmt.Errorf("blob: parsing manifest: not the canonical encoding")
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// decodeManifest reads the fields of the layout Encode writes, without
// checking that each is spelled the way Encode spells it.
func decodeManifest(data []byte) (Manifest, error) {
	d := decoder{rest: data}
	var m Manifest
	ok := d.lit(`{"name":`) && d.str(&m.Name) &&
		d.lit(`,"version":`) && d.int(&m.Version) &&
		d.lit(`,"chunks":`) && d.chunks(&m.Chunks) &&
		d.lit("}") && len(d.rest) == 0
	if !ok {
		return Manifest{}, fmt.Errorf("blob: parsing manifest: unexpected input at byte %d", len(data)-len(d.rest))
	}
	return m, nil
}

// decoder consumes a manifest encoding from the front of rest; each method
// reports whether the next bytes are a value of the kind it decodes.
type decoder struct{ rest []byte }

func (d *decoder) lit(s string) bool {
	if len(d.rest) < len(s) || string(d.rest[:len(s)]) != s {
		return false
	}
	d.rest = d.rest[len(s):]
	return true
}

// digits consumes decimal digits that fit a uint64.
func (d *decoder) digits() (uint64, bool) {
	n := 0
	var v uint64
	for ; n < len(d.rest) && '0' <= d.rest[n] && d.rest[n] <= '9'; n++ {
		c := uint64(d.rest[n] - '0')
		if v > (1<<64-1-c)/10 {
			return 0, false
		}
		v = v*10 + c
	}
	d.rest = d.rest[n:]
	return v, n > 0
}

func (d *decoder) uint(out *Digest) bool {
	v, ok := d.digits()
	*out = Digest(v)
	return ok
}

// int consumes an optionally negative integer that fits an int64.
func (d *decoder) int(out *int64) bool {
	neg := d.lit("-")
	v, ok := d.digits()
	switch {
	case !ok:
		return false
	case neg && v <= 1<<63:
		*out = -int64(v-1) - 1
	case !neg && v < 1<<63:
		*out = int64(v)
	default:
		return false
	}
	return true
}

func (d *decoder) size(out *int) bool {
	var v int64
	if !d.int(&v) || int64(int(v)) != v {
		return false
	}
	*out = int(v)
	return true
}

// chunks consumes null (a nil list) or a bracketed list of refs.
func (d *decoder) chunks(out *[]Ref) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("[") {
		return false
	}
	refs := make([]Ref, 0, bytes.Count(d.rest, []byte(`{`)))
	for i := 0; !d.lit("]"); i++ {
		var r Ref
		if (i > 0 && !d.lit(",")) ||
			!d.lit(`{"digest":`) || !d.uint(&r.Digest) || !d.lit(`,"size":`) || !d.size(&r.Size) || !d.lit("}") {
			return false
		}
		refs = append(refs, r)
	}
	*out = refs
	return true
}

// str consumes a quoted string with JSON escapes.
func (d *decoder) str(out *string) bool {
	if !d.lit(`"`) {
		return false
	}
	s := d.rest
	var buf []byte // the decoded bytes, once an escape forces a copy
	start := 0
	for i := 0; i < len(s); {
		switch s[i] {
		case '"':
			if buf == nil {
				*out = string(s[:i])
			} else {
				*out = string(append(buf, s[start:i]...))
			}
			d.rest = s[i+1:]
			return true
		case '\\':
			r, n := unescape(s[i:])
			if n == 0 {
				return false
			}
			buf = utf8.AppendRune(append(buf, s[start:i]...), r)
			i += n
			start = i
		default:
			i++
		}
	}
	return false
}

// unescape decodes the JSON escape sequence at the front of s and returns
// the rune and the sequence's length (0: not an escape).
func unescape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(s) < 6 {
			return 0, 0
		}
		var r rune
		for _, c := range s[2:6] {
			switch {
			case '0' <= c && c <= '9':
				r = r<<4 | rune(c-'0')
			case 'a' <= c && c <= 'f':
				r = r<<4 | rune(c-'a'+10)
			case 'A' <= c && c <= 'F':
				r = r<<4 | rune(c-'A'+10)
			default:
				return 0, 0
			}
		}
		return r, 6
	}
	return 0, 0
}
