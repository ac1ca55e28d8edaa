package qbets

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// decodeObservePayload mirrors the handler's parse: first JSON value only
// (trailing bytes ignored), array or single record.
func decodeObservePayload(data []byte) (records []ObserveRecord, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false
	}
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &records); err != nil {
			return nil, false
		}
		return records, true
	}
	var one ObserveRecord
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, false
	}
	return []ObserveRecord{one}, true
}

// FuzzObserveRecord hardens the observe ingestion path: arbitrary bytes
// must never panic the handler, anything the JSON layer accepts must
// round-trip losslessly, and the handler must answer every payload with
// either 204 (ingested) or 400 (rejected, with a JSON error body).
func FuzzObserveRecord(f *testing.F) {
	// Well-formed singles and batches.
	f.Add([]byte(`{"queue":"normal","procs":8,"wait_seconds":123}`))
	f.Add([]byte(`[{"queue":"normal","procs":8,"wait_seconds":123},{"queue":"high","procs":1,"wait_seconds":0}]`))
	f.Add([]byte(`{"queue":"q","procs":0,"wait_seconds":0.5}`))
	f.Add([]byte(`{"queue":"üñïçø∂é","procs":2147483647,"wait_seconds":1e300}`))
	// Hostile shapes.
	f.Add([]byte(`{bad json`))
	f.Add([]byte(`[`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"queue":"","wait_seconds":1}`))
	f.Add([]byte(`{"queue":"q","wait_seconds":-1}`))
	f.Add([]byte(`{"queue":"q","procs":-5,"wait_seconds":1}`))
	f.Add([]byte(`[{"queue":"a","wait_seconds":1},{"queue":"","wait_seconds":2}]`))
	f.Add([]byte(`{"queue":"q","wait_seconds":1e999}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte("[{\"queue\":\"q\",\"wait_seconds\":1}]\n{\"queue\":\"r\"}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON-layer property: an accepted record re-encodes and decodes
		// to itself (valid JSON cannot smuggle NaN/Inf into the floats).
		var rec ObserveRecord
		if err := json.Unmarshal(data, &rec); err == nil {
			out, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-marshal: %v", rec, err)
			}
			var back ObserveRecord
			if err := json.Unmarshal(out, &back); err != nil {
				t.Fatalf("re-marshaled record rejected: %v", err)
			}
			if !reflect.DeepEqual(rec, back) {
				t.Fatalf("round trip changed record: %+v vs %+v", rec, back)
			}
		}

		// Differential oracle for the handler contract: the payload is the
		// first JSON value in the body — an array of records or a single
		// record — and it is ingested iff it fits the body cap and every
		// record has a queue and a finite non-negative wait (JSON cannot
		// encode NaN or Inf, so the finiteness check is unreachable here but
		// the cap is not). Anything else earns a 400 with a JSON error.
		records, parses := decodeObservePayload(data)
		valid := parses && len(data) <= maxObserveBody
		for _, rec := range records {
			if rec.Queue == "" || rec.WaitSeconds < 0 {
				valid = false
				break
			}
		}

		srv := NewServer(true, WithSeed(1))
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(string(data)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		switch {
		case valid:
			if w.Code != http.StatusNoContent {
				t.Fatalf("valid payload %q got status %d: %s", data, w.Code, w.Body.String())
			}
			if len(records) > 0 && srv.Service().NumStreams() == 0 {
				t.Fatalf("204 with no streams for %q", data)
			}
		default:
			if w.Code != http.StatusBadRequest {
				t.Fatalf("invalid payload %q got status %d", data, w.Code)
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("400 without JSON error body for %q: %s", data, w.Body.String())
			}
		}
	})
}

// FuzzForecastShapes holds the hand-rolled POST /v1/forecast decoder to
// encoding/json decoding into []struct{Queue string; Procs int}, followed
// by the parser's own per-shape validation (queue required, procs 0 means
// 1, negative procs rejected). The parser must never panic; every body
// encoding/json accepts must be accepted with equal shapes, or refused at
// the same first invalid shape; and a body only the parser accepts must
// owe that to the header's one relaxation — once every number outside a
// string that is not a valid JSON number is replaced by 0, encoding/json
// must accept it too, with equal shapes.
func FuzzForecastShapes(f *testing.F) {
	for _, s := range []string{
		`[{"queue":"normal","procs":8}]`,
		`[{"queue":"a"},{"queue":"b","procs":0},{"Queue":"c","PROCS":64}]`,
		`[]`, ` [ ] trailing`, `[{"queue":"q","procs":null,"queue":"r"}]`,
		`[{"queue":"q","x":{"y":[1,2,{"z":null}]},"w":-1.5e+3}]`,
		`[{"queue":"q","x":1-2}]`, `[{"queue":"q","x":{]}]`, `[{"queue":"q","x":[1 2]}]`,
		`[{"queue":"q","procs":9223372036854775807}]`, `[{"queue":"q","procs":9223372036854775808}]`,
		`[{"queue":"q","procs":1099511627777}]`, `[{"queue":"q","procs":-0}]`, `[{"queue":"q","procs":01}]`,
		`[{"queue":"","procs":1}]`, `[{"queue":"q","procs":-3}]`, `[{"queue":"q","procs":1.0}]`,
		`[{"queue":"é","procſ":2}]`, `[{"queue":5}]`, `[{"queue":"q"`, `[{`, `[`,
		// An unknown field's value nested to exactly encoding/json's depth
		// limit, and one level past it.
		`[{"queue":"q","x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]`,
		`[{"queue":"q","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}]`,
	} {
		f.Add([]byte(s))
	}
	type refShape struct {
		Queue string
		Procs int
	}
	// reference decodes like the handler: the first JSON value only, then
	// the parser's validation; ok is false when encoding/json refuses the
	// body, bad is the first invalid shape's index (-1 when all are valid).
	reference := func(data []byte) (shapes []forecastShape, bad int, ok bool) {
		var raw json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&raw); err != nil {
			return nil, -1, false
		}
		var ref []refShape
		if err := json.Unmarshal(raw, &ref); err != nil {
			return nil, -1, false
		}
		for i, r := range ref {
			if r.Procs == 0 {
				r.Procs = 1
			}
			if r.Queue == "" || r.Procs < 1 {
				return shapes, i, true
			}
			shapes = append(shapes, forecastShape{queue: r.Queue, procs: r.Procs})
		}
		return shapes, -1, true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The handler only hands the parser bodies that open with '['.
		if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
			return
		}
		got, err := parseForecastShapes(nil, data)
		want, bad, ok := reference(data)
		var fieldErr *shapeFieldError
		switch {
		case ok && bad >= 0:
			if !errors.As(err, &fieldErr) || fieldErr.index != bad {
				t.Fatalf("%q: parser error %v, want shape %d refused", data, err, bad)
			}
		case ok:
			if err != nil {
				t.Fatalf("%q: encoding/json accepts, parser refuses: %v", data, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q: parser shapes %v, encoding/json %v", data, got, want)
			}
		case err == nil:
			relaxed := zeroInvalidNumbers(data)
			want, bad, ok := reference(relaxed)
			if !ok || bad >= 0 || !slices.Equal(got, want) {
				t.Fatalf("%q: parser accepts %v outside the documented relaxation (relaxed %q: %v, bad %d, ok %v)", data, got, relaxed, want, bad, ok)
			}
		}
	})
}

// zeroInvalidNumbers replaces every run of number characters outside a
// string — a run starts at '-' or a digit and continues over the
// characters the parser's skipValue scans — that is not a valid JSON
// number with "0".
func zeroInvalidNumbers(data []byte) []byte {
	var out []byte
	inString := false
	for i := 0; i < len(data); {
		c := data[i]
		switch {
		case inString:
			if c == '\\' && i+1 < len(data) {
				out = append(out, c, data[i+1])
				i += 2
				continue
			}
			inString = c != '"'
		case c == '"':
			inString = true
		case c == '-' || ('0' <= c && c <= '9'):
			j := i + 1
			for j < len(data) && strings.IndexByte("-+.eE0123456789", data[j]) >= 0 {
				j++
			}
			if run := data[i:j]; json.Valid(run) {
				out = append(out, run...)
			} else {
				out = append(out, '0')
			}
			i = j
			continue
		}
		out = append(out, c)
		i++
	}
	return out
}
