package qbets

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Hand-rolled decoder for the POST /v1/forecast body: a JSON array of flat
// {queue, procs} objects. The general streaming decoder costs about a
// microsecond per shape in reflection and scanner-state overhead — two
// orders of magnitude more than answering the shape from the published
// snapshot — so the batch endpoint parses its one fixed wire shape
// directly. Semantics track encoding/json's decode into a
// {Queue string, Procs int} struct: field names match case-insensitively,
// unknown fields are skipped, duplicates take the last value, null leaves
// a field unset, queue strings route through the same intern cache as the
// observe path, nesting deeper than encoding/json's limit is refused, and
// malformed input is rejected (the one relaxation: a bare number as the
// value of a skipped unknown field is scanned, not fully validated).

// shapeFieldError is a per-shape validation failure; the index names the
// offending array element so a client can fix exactly that shape.
type shapeFieldError struct {
	index int
	msg   string
}

func (e *shapeFieldError) Error() string { return fmt.Sprintf("shape %d: %s", e.index, e.msg) }

type shapeParser struct {
	buf []byte
	pos int
}

func (p *shapeParser) syntaxErr(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, p.pos)
}

var errShapeEOF = fmt.Errorf("unexpected end of JSON input")

func (p *shapeParser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *shapeParser) consume(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// parseForecastShapes appends the decoded shapes of a JSON array body to
// dst. The caller has already verified the first non-space byte is '[';
// bytes after the closing ']' are ignored, mirroring the observe path's
// first-JSON-value contract. procs is validated (0 defaults to 1) so every
// returned shape is servable as-is.
func parseForecastShapes(dst []forecastShape, buf []byte) ([]forecastShape, error) {
	p := shapeParser{buf: buf}
	p.skipWS()
	if !p.consume('[') {
		return dst, p.syntaxErr("expected '['")
	}
	p.skipWS()
	if p.consume(']') {
		return dst, nil
	}
	for i := 0; ; i++ {
		sh, err := p.parseShape(i)
		if err != nil {
			return dst, err
		}
		dst = append(dst, sh)
		p.skipWS()
		if p.consume(',') {
			p.skipWS()
			continue
		}
		if p.consume(']') {
			return dst, nil
		}
		if p.pos >= len(p.buf) {
			return dst, errShapeEOF
		}
		return dst, p.syntaxErr("expected ',' or ']' after shape")
	}
}

// parseShape decodes one {queue, procs} object and validates it.
func (p *shapeParser) parseShape(index int) (forecastShape, error) {
	var sh forecastShape
	if !p.consume('{') {
		if p.pos >= len(p.buf) {
			return sh, errShapeEOF
		}
		return sh, p.syntaxErr("expected '{'")
	}
	p.skipWS()
	if !p.consume('}') {
		for {
			key, err := p.parseStringToken()
			if err != nil {
				return sh, err
			}
			p.skipWS()
			if !p.consume(':') {
				return sh, p.syntaxErr("expected ':' after object key")
			}
			p.skipWS()
			switch keyKind(key) {
			case kindQueue:
				q, null, err := p.parseQueueValue()
				if err != nil {
					return sh, err
				}
				if !null {
					sh.queue = q
				}
			case kindProcs:
				n, null, err := p.parseIntValue()
				if err != nil {
					return sh, err
				}
				if !null {
					sh.procs = n
				}
			default:
				if err := p.skipValue(); err != nil {
					return sh, err
				}
			}
			p.skipWS()
			if p.consume(',') {
				p.skipWS()
				continue
			}
			if p.consume('}') {
				break
			}
			if p.pos >= len(p.buf) {
				return sh, errShapeEOF
			}
			return sh, p.syntaxErr("expected ',' or '}' in shape object")
		}
	}
	if sh.queue == "" {
		return sh, &shapeFieldError{index, "queue required"}
	}
	if sh.procs == 0 {
		sh.procs = 1
	}
	if sh.procs < 1 {
		return sh, &shapeFieldError{index, "procs must be a positive integer"}
	}
	return sh, nil
}

type fieldKind int

const (
	kindSkip fieldKind = iota
	kindQueue
	kindProcs
)

// keyKind classifies a raw key token: exact matches on the canonical
// lowercase tokens cost nothing; anything else — escaped or case-variant —
// is unescaped once and fold-compared, mirroring encoding/json's
// case-insensitive field fallback.
func keyKind(token []byte) fieldKind {
	switch string(token) {
	case `"queue"`:
		return kindQueue
	case `"procs"`:
		return kindProcs
	}
	var k string
	if err := json.Unmarshal(token, &k); err != nil {
		return kindSkip
	}
	switch {
	case strings.EqualFold(k, "queue"):
		return kindQueue
	case strings.EqualFold(k, "procs"):
		return kindProcs
	}
	return kindSkip
}

// parseStringToken scans one JSON string and returns its raw token, quotes
// included. Escape sequences are shape-checked here; full unescaping is
// left to the consumer (field-name match or queue intern miss).
func (p *shapeParser) parseStringToken() ([]byte, error) {
	if !p.consume('"') {
		if p.pos >= len(p.buf) {
			return nil, errShapeEOF
		}
		return nil, p.syntaxErr("expected string")
	}
	start := p.pos - 1
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			p.pos++
			return p.buf[start:p.pos], nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.buf) {
				return nil, errShapeEOF
			}
			switch p.buf[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				for i := 0; i < 4; i++ {
					if p.pos >= len(p.buf) || !isHexDigit(p.buf[p.pos]) {
						return nil, p.syntaxErr("invalid \\u escape in string")
					}
					p.pos++
				}
			default:
				return nil, p.syntaxErr("invalid escape in string")
			}
		case c < 0x20:
			return nil, p.syntaxErr("raw control character in string")
		default:
			p.pos++
		}
	}
	return nil, errShapeEOF
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// parseQueueValue decodes the queue field: null leaves it unset; a string
// resolves through the intern cache (hit: zero-copy, zero-alloc; miss:
// json.Unmarshal validates, unescapes, and memoizes — identical to the
// internedQueue decode path).
func (p *shapeParser) parseQueueValue() (string, bool, error) {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		if err := p.expectLiteral("null"); err != nil {
			return "", false, err
		}
		return "", true, nil
	}
	tok, err := p.parseStringToken()
	if err != nil {
		return "", false, err
	}
	q, err := internQueueToken(tok)
	if err != nil {
		return "", false, err
	}
	return q, false, nil
}

// parseIntValue decodes the procs field: null leaves it unset; otherwise a
// JSON integer, rejecting fractions, exponents, leading zeros and values
// outside int64 exactly as encoding/json does for an int target.
func (p *shapeParser) parseIntValue() (int, bool, error) {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		if err := p.expectLiteral("null"); err != nil {
			return 0, false, err
		}
		return 0, true, nil
	}
	neg := p.consume('-')
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	start := p.pos
	var n uint64
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		d := uint64(p.buf[p.pos] - '0')
		if n > (limit-d)/10 {
			return 0, false, p.syntaxErr("number out of range for procs")
		}
		n = n*10 + d
		p.pos++
	}
	if p.pos == start {
		return 0, false, p.syntaxErr("expected number for procs")
	}
	if p.buf[start] == '0' && p.pos > start+1 {
		return 0, false, p.syntaxErr("invalid leading zero in number")
	}
	if p.pos < len(p.buf) {
		if c := p.buf[p.pos]; c == '.' || c == 'e' || c == 'E' {
			return 0, false, p.syntaxErr("procs must be an integer")
		}
	}
	if neg {
		return int(-int64(n)), false, nil
	}
	return int(n), false, nil
}

func (p *shapeParser) expectLiteral(lit string) error {
	if len(p.buf)-p.pos < len(lit) || string(p.buf[p.pos:p.pos+len(lit)]) != lit {
		return p.syntaxErr("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

// skipValue scans past one JSON value of any type (the value of an unknown
// field). Strings are escape-checked and composites validated in full;
// bare numbers and literals are scanned by charset.
func (p *shapeParser) skipValue() error {
	if p.pos >= len(p.buf) {
		return errShapeEOF
	}
	switch c := p.buf[p.pos]; c {
	case '"':
		_, err := p.parseStringToken()
		return err
	case '{', '[':
		return p.skipComposite()
	case 't':
		return p.expectLiteral("true")
	case 'f':
		return p.expectLiteral("false")
	case 'n':
		return p.expectLiteral("null")
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			p.pos++
			for p.pos < len(p.buf) {
				c := p.buf[p.pos]
				if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || (c >= '0' && c <= '9') {
					p.pos++
					continue
				}
				break
			}
			return nil
		}
		return p.syntaxErr("unexpected character in value")
	}
}

// maxNestingDepth is encoding/json's nesting limit. The body array is
// depth 1 and a shape object depth 2, so an unknown field's composite
// value opens at depth 3.
const maxNestingDepth = 10000

// skipComposite scans past a balanced object or array, honoring strings
// and the nesting limit, then holds it to the full JSON grammar.
func (p *shapeParser) skipComposite() error {
	start, open := p.pos, 0
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case '{', '[':
			if open++; open+2 > maxNestingDepth {
				return p.syntaxErr("exceeded max depth")
			}
			p.pos++
		case '}', ']':
			open--
			p.pos++
			if open == 0 {
				if !json.Valid(p.buf[start:p.pos]) {
					return p.syntaxErr("invalid composite value")
				}
				return nil
			}
		case '"':
			if _, err := p.parseStringToken(); err != nil {
				return err
			}
		default:
			p.pos++
		}
	}
	return errShapeEOF
}

// internQueueToken resolves a raw JSON string token (quotes included) to
// its decoded value through the shared queue intern cache — the same
// lookup-by-raw-bytes protocol internedQueue.UnmarshalJSON uses, so the
// batch decoder and the observe decoder populate and hit one cache.
func internQueueToken(tok []byte) (string, error) {
	queueInterner.RLock()
	v, ok := queueInterner.m[string(tok)]
	queueInterner.RUnlock()
	if ok {
		return v, nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", err
	}
	queueInterner.Lock()
	if len(queueInterner.m) < maxInternedQueues {
		queueInterner.m[string(tok)] = s
	}
	queueInterner.Unlock()
	return s, nil
}
