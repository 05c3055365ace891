package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/exec"
)

// The hand-written codec of the predict hot path. Both halves are held to
// encoding/json byte for byte: DecodePredictRequest yields the value (and,
// by delegation, the error text) json.Unmarshal yields, AppendPredictResponse
// the bytes json.Encoder.Encode writes. encoding/json stays in use as the
// decoder's fallback, for the model block, and as the oracle of the fuzzers
// in codec_test.go.

// DecodePredictRequest decodes the body of POST /v1/predict into req, which
// must be zero, exactly as json.Unmarshal(data, req) does. The canonical
// shapes — {"sql":s} and {"queries":[{"sql":s},…]}, combined in either
// order — are scanned in one pass with one allocation per string:
//
//   - keys are the exact bytes "sql" and "queries" (lower case, no escapes),
//     each at most once per object;
//   - string values are ASCII, with the escapes \" \\ \/ \b \f \n \r \t and
//     \uXXXX for anything but a surrogate half;
//   - JSON whitespace may stand between any two tokens.
//
// Any other input — an unknown, case-variant or repeated key, null, a value
// of the wrong type, a non-ASCII or control byte, a surrogate escape,
// trailing data, a syntax error — is handed unchanged to json.Unmarshal, so
// what those inputs decode to, and the text of their errors, is
// encoding/json's by construction. Which path runs depends on data alone;
// fallback reports that it was encoding/json.
func DecodePredictRequest(data []byte, req *PredictRequest) (fallback bool, err error) {
	s := reqScanner{data: data}
	if fast, ok := s.request(); ok {
		*req = fast
		return false, nil
	}
	return true, json.Unmarshal(data, req)
}

// reqScanner is the fast path's cursor over one request body. Every method
// that returns ok=false leaves the verdict to encoding/json; none reports an
// error of its own.
type reqScanner struct {
	data []byte
	i    int
}

// maxQueriesHint caps the capacity guessed for the queries slice from the
// first element's length, so a body that lies about its shape costs at most
// 16 KiB before append takes over.
const maxQueriesHint = 1024

func (s *reqScanner) request() (req PredictRequest, ok bool) {
	if !s.token('{') {
		return req, false
	}
	var haveSQL, haveQueries bool
	for first := true; !s.token('}'); first = false {
		if !first && !s.token(',') {
			return req, false
		}
		s.space()
		switch {
		case !haveSQL && s.literal(`"sql"`):
			haveSQL = true
			if !s.token(':') {
				return req, false
			}
			if req.SQL, ok = s.str(); !ok {
				return req, false
			}
		case !haveQueries && s.literal(`"queries"`):
			haveQueries = true
			if !s.token(':') {
				return req, false
			}
			if req.Queries, ok = s.queries(); !ok {
				return req, false
			}
		default:
			return req, false
		}
	}
	s.space()
	return req, s.i == len(s.data)
}

// queries scans [{"sql":s},…]. An empty array is a non-nil empty slice, as
// encoding/json makes it.
func (s *reqScanner) queries() (qs []QueryInput, ok bool) {
	if !s.token('[') {
		return nil, false
	}
	if s.token(']') {
		return []QueryInput{}, true
	}
	for {
		s.space()
		start := s.i
		var q QueryInput
		if !s.token('{') {
			return nil, false
		}
		if !s.token('}') {
			if !s.literal(`"sql"`) || !s.token(':') {
				return nil, false
			}
			if q.SQL, ok = s.str(); !ok {
				return nil, false
			}
			if !s.token('}') {
				return nil, false
			}
		}
		if qs == nil {
			// Batches are near-uniform: size the slice once from how many
			// elements of the first one's length the rest of the body holds.
			qs = make([]QueryInput, 0, min(1+(len(s.data)-s.i)/(s.i-start+1), maxQueriesHint))
		}
		qs = append(qs, q)
		if s.token(']') {
			return qs, true
		}
		if !s.token(',') {
			return nil, false
		}
	}
}

// space skips JSON whitespace.
func (s *reqScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token consumes optional whitespace and then c, or consumes only the
// whitespace and reports false.
func (s *reqScanner) token(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if the input continues with exactly those bytes.
func (s *reqScanner) literal(lit string) bool {
	if len(s.data)-s.i >= len(lit) && string(s.data[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// unquoted marks the bytes that stand for themselves inside a string the
// fast path takes: ASCII from the space up, but for the quote and the
// backslash.
var unquoted = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans one string value (after optional whitespace).
func (s *reqScanner) str() (string, bool) {
	if !s.token('"') {
		return "", false
	}
	data, i, escapes := s.data, s.i, false
	for {
		for i < len(data) && unquoted[data[i]] {
			i++
		}
		switch {
		case i == len(data):
			return "", false
		case data[i] == '"':
			raw := data[s.i:i]
			s.i = i + 1
			if escapes {
				return unescape(raw)
			}
			return string(raw), true
		case data[i] == '\\' && i+1 < len(data):
			escapes = true
			i += 2 // whatever is escaped, a quote included, does not end the string
		default: // a control or non-ASCII byte, or a backslash that ends the input
			return "", false
		}
	}
}

// unescape decodes the inside of a string literal that holds escapes; str
// has seen that a byte follows every backslash. An escape is never shorter
// than what it stands for, so the literal's length bounds the one
// allocation.
func unescape(raw []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String(), true
		}
		sb.Write(raw[:k])
		c := raw[k+1]
		raw = raw[k+2:]
		switch c {
		case '"', '\\', '/':
			sb.WriteByte(c)
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, ok := hex4(raw)
			// A surrogate half pairs with (or is replaced because of) what
			// follows it: encoding/json's business.
			if !ok || (r >= 0xD800 && r < 0xE000) {
				return "", false
			}
			sb.WriteRune(r)
			raw = raw[4:]
		default:
			return "", false
		}
	}
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// Fragment holds the encoded "metrics":{…},"category":…,"confidence":… run
// of one result, for whoever can vouch that the run is a pure function of
// something longer-lived than the request — the serving layer hangs one on
// every entry of a model generation's prediction cache (core.Memo is this
// type). Empty until the first AppendPredictResponse that is handed it
// stores the bytes; racing fillers store equal bytes, and the stored slice
// is never written again.
type Fragment = atomic.Pointer[[]byte]

// FragmentUse counts what one AppendPredictResponse call did with the
// fragments it was handed: results copied from a stored fragment, and
// fragments it stored.
type FragmentUse struct {
	Hits, Fills int
}

// AppendPredictResponse appends to dst the bytes json.Encoder.Encode(resp)
// writes — field order, omitempty, HTML-escaped strings, invalid UTF-8 as
// U+FFFD's escape, float formatting, trailing newline — and returns the
// extended slice. The model block, cold and full of optional fields, is
// encoding/json's; its error, if any, is the only one returned (dst then
// comes back unextended).
//
// frags is nil or parallel to resp.Results. A non-nil frags[i] promises that
// result i's Metrics, Category and Confidence are exactly what that fragment
// was, or will be, filled from: a filled fragment is copied in place of
// formatting those fields, an empty one is filled. Results without Metrics
// ignore their fragment.
//
// Unlike encoding/json, which refuses the whole response, a result holding a
// NaN or ±Inf is encoded as a per-result failure — sql, shard, a finite
// optimizer_cost, and error{internal, "prediction is not finite (<field>)"}
// — and the results beside it are unaffected.
func AppendPredictResponse(dst []byte, resp *PredictResponse, frags []*Fragment) ([]byte, FragmentUse, error) {
	var use FragmentUse
	out := append(dst, `{"version":`...)
	out = AppendJSONString(out, resp.Version)
	if resp.Model != nil {
		model, err := json.Marshal(resp.Model)
		if err != nil {
			return dst, use, err
		}
		out = append(out, `,"model":`...)
		out = append(out, model...)
	}
	out = append(out, `,"results":`...)
	if resp.Results == nil {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		for i := range resp.Results {
			if i > 0 {
				out = append(out, ',')
			}
			var frag *Fragment
			if frags != nil {
				frag = frags[i]
			}
			out = appendResult(out, &resp.Results[i], frag, &use)
		}
		out = append(out, ']')
	}
	return append(out, '}', '\n'), use, nil
}

// metricKeys are the keys of the metrics object with their separators, in
// wire order (exec.MetricNames, asserted by TestMetricKeysMatchNames).
var metricKeys = [exec.NumMetrics]string{
	`{"elapsed_time":`, `,"records_accessed":`, `,"records_used":`,
	`,"disk_ios":`, `,"message_count":`, `,"message_bytes":`,
}

func (m *Metrics) vector() [exec.NumMetrics]float64 {
	return [...]float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed, m.DiskIOs, m.MessageCount, m.MessageBytes}
}

func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }

// nonFinite names the first field of r, in wire order, that JSON has no
// number for, or "".
func (r *QueryResult) nonFinite() string {
	if r.Metrics != nil {
		for i, v := range r.Metrics.vector() {
			if !finite(v) {
				return exec.MetricNames[i]
			}
		}
	}
	switch {
	case !finite(r.Confidence):
		return "confidence"
	case !finite(r.OptimizerCost):
		return "optimizer_cost"
	}
	return ""
}

func appendResult(dst []byte, r *QueryResult, frag *Fragment, use *FragmentUse) []byte {
	var run []byte
	if r.Metrics == nil {
		frag = nil
	} else if frag != nil {
		if p := frag.Load(); p != nil {
			run = *p
		}
	}
	// Only finite values are ever stored, so a filled fragment vouches for
	// every number of its run; optimizer_cost is checked either way.
	if run == nil || !finite(r.OptimizerCost) {
		if field := r.nonFinite(); field != "" {
			failed := QueryResult{SQL: r.SQL, Shard: r.Shard, Error: &Error{
				Code: CodeInternal, Message: "prediction is not finite (" + field + ")",
			}}
			if finite(r.OptimizerCost) {
				failed.OptimizerCost = r.OptimizerCost
			}
			r, frag, run = &failed, nil, nil
		}
	}

	dst = append(dst, '{')
	open := len(dst)
	// field starts the next field of the object: a comma unless it is the
	// first, then the key.
	field := func(key string) {
		if len(dst) > open {
			dst = append(dst, ',')
		}
		dst = append(dst, key...)
	}
	if r.SQL != "" {
		field(`"sql":`)
		dst = AppendJSONString(dst, r.SQL)
	}
	if run != nil {
		field("")
		dst = append(dst, run...)
		use.Hits++
	} else {
		start := -1
		if r.Metrics != nil {
			field(`"metrics":`)
			start = len(dst) - len(`"metrics":`)
			for i, v := range r.Metrics.vector() {
				dst = append(dst, metricKeys[i]...)
				dst = AppendJSONFloat(dst, v)
			}
			dst = append(dst, '}')
		}
		if r.Category != "" {
			field(`"category":`)
			dst = AppendJSONString(dst, r.Category)
		}
		if r.Confidence != 0 {
			field(`"confidence":`)
			dst = AppendJSONFloat(dst, r.Confidence)
		}
		if frag != nil {
			stored := bytes.Clone(dst[start:])
			frag.Store(&stored)
			use.Fills++
		}
	}
	if r.OptimizerCost != 0 {
		field(`"optimizer_cost":`)
		dst = AppendJSONFloat(dst, r.OptimizerCost)
	}
	if r.Generation != 0 {
		field(`"generation":`)
		dst = strconv.AppendInt(dst, r.Generation, 10)
	}
	if r.Shard != "" {
		field(`"shard":`)
		dst = AppendJSONString(dst, r.Shard)
	}
	if r.FallbackShard != "" {
		field(`"fallback_shard":`)
		dst = AppendJSONString(dst, r.FallbackShard)
	}
	if r.ModelKind != "" {
		field(`"model_kind":`)
		dst = AppendJSONString(dst, r.ModelKind)
	}
	if r.Error != nil {
		field(`"error":{"code":`)
		dst = AppendJSONString(dst, r.Error.Code)
		dst = append(dst, `,"message":`...)
		dst = AppendJSONString(dst, r.Error.Message)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}
