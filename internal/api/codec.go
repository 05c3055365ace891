package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/exec"
)

// The hand-written codec of the predict hot path, both directions of both
// ends of the wire, held to encoding/json byte for byte: the decoders
// (DecodePredictRequest at the daemon, DecodePredictResponse at the client)
// yield the value and, by delegation, the error text json.Unmarshal yields;
// the encoders (AppendPredictRequest, AppendPredictResponse) the bytes
// json.Encoder.Encode writes. encoding/json stays in use as the decoders'
// fallback, for the model block, and as the oracle of the fuzzers in
// codec_test.go.

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
	s := scanner{data: data}
	if fast, ok := s.request(); ok {
		*req = fast
		return false, nil
	}
	return true, json.Unmarshal(data, req)
}

// scanner is the fast paths' cursor over one body. Every method that returns
// ok=false leaves the verdict to encoding/json; none reports an error of its
// own.
type scanner struct {
	data []byte
	i    int
	// rawUTF8 admits valid UTF-8 in string values beside ASCII: the response
	// side, where the daemon echoes a query's non-ASCII text as it came.
	rawUTF8 bool
	// scratch holds what the last string literal text unescaped stands for.
	scratch []byte
}

// maxQueriesHint caps the capacity guessed for the queries slice (and for a
// response's results) from the first element's length, so a body that lies
// about its shape costs at most 16 KiB (120 KiB of results and 48 of
// metrics) before append takes over.
const maxQueriesHint = 1024

// object is the cursor over the members of one JSON object.
type object struct {
	names []string // the keys it may hold, quotes included, in wire order
	seen  uint     // bit k: names[k] has been found
	next  int      // where the search for a key starts: after the last one found
	open  bool
}

// What member returns in place of an index into names.
const (
	endObject = -1 - iota
	declined
)

// member moves to the object's next member and returns the index of its key
// in o.names, leaving the cursor on the value; endObject once the closing
// brace is consumed; declined for what the fast path does not take — a key
// that is not in names, is spelled otherwise or was seen before, or a syntax
// error.
func (s *scanner) member(o *object) int {
	switch {
	case !o.open:
		if !s.token('{') {
			return declined
		}
		o.open = true
		if s.token('}') {
			return endObject
		}
	case s.token('}'):
		return endObject
	case !s.token(','):
		return declined
	}
	s.space()
	for n := range o.names {
		k := o.next + n
		if k >= len(o.names) {
			k -= len(o.names)
		}
		if s.literal(o.names[k]) {
			if o.seen&(1<<k) != 0 || !s.token(':') {
				return declined
			}
			o.seen |= 1 << k
			o.next = k + 1
			return k
		}
	}
	return declined
}

// The keys of the request's objects, in wire order (the order of the struct
// fields, asserted by TestCodecKeysMatchStructTags), and their indices.
var (
	requestKeys = []string{`"sql"`, `"queries"`}
	queryKeys   = []string{`"sql"`}
)

const (
	keyRequestSQL = iota
	keyRequestQueries
)

func (s *scanner) request() (req PredictRequest, ok bool) {
	o := object{names: requestKeys}
	for k := s.member(&o); k != endObject; k = s.member(&o) {
		switch k {
		case keyRequestSQL:
			req.SQL, ok = s.str()
		case keyRequestQueries:
			req.Queries, ok = s.queries()
		default:
			ok = false
		}
		if !ok {
			return req, false
		}
	}
	s.space()
	return req, s.i == len(s.data)
}

// queries scans [{"sql":s},…]. An empty array is a non-nil empty slice, as
// encoding/json makes it.
func (s *scanner) queries() (qs []QueryInput, ok bool) {
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
		o := object{names: queryKeys}
		for k := s.member(&o); k != endObject; k = s.member(&o) {
			if k == declined {
				return nil, false
			}
			if q.SQL, ok = s.str(); !ok {
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
func (s *scanner) space() {
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
func (s *scanner) token(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if the input continues with exactly those bytes.
func (s *scanner) literal(lit string) bool {
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

// unquotedWord reports whether all eight bytes of w are unquoted.
func unquotedWord(w uint64) bool {
	return (controlOrNonASCII(w)|zeroIn(w^lsb*'"')|zeroIn(w^lsb*'\\'))&msb == 0
}

// quoted scans one string value (after optional whitespace) and returns the
// inside of its literal and whether that holds escapes. Runs of bytes that
// stand for themselves are skipped eight at a time.
func (s *scanner) quoted() (raw []byte, escapes, ok bool) {
	if !s.token('"') {
		return nil, false, false
	}
	data, i := s.data, s.i
	for {
		for i+8 <= len(data) && unquotedWord(binary.LittleEndian.Uint64(data[i:])) {
			i += 8
		}
		for i < len(data) && unquoted[data[i]] { // at most eight bytes
			i++
		}
		switch {
		case i == len(data):
			return nil, false, false
		case data[i] == '"':
			raw = data[s.i:i]
			s.i = i + 1
			return raw, escapes, true
		case data[i] == '\\' && i+1 < len(data):
			escapes = true
			i += 2 // whatever is escaped, a quote included, does not end the string
		case data[i] >= utf8.RuneSelf && s.rawUTF8:
			// encoding/json copies a valid sequence as it is; what it puts
			// in place of a byte that starts none is its business.
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false, false
			}
			i += size
		default: // a control or non-ASCII byte, or a backslash that ends the input
			return nil, false, false
		}
	}
}

// str scans one string value into a string of its own: one allocation, the
// literal's length bounding it where there are escapes (an escape is never
// shorter than what it stands for).
func (s *scanner) str() (string, bool) {
	raw, escapes, ok := s.quoted()
	if !escapes {
		return string(raw), ok
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String(), true
		}
		sb.Write(raw[:k])
		r, n, ok := escape(raw[k+1:])
		if !ok {
			return "", false
		}
		sb.WriteRune(r)
		raw = raw[k+1+n:]
	}
}

// text scans one string value and returns the bytes it stands for without
// allocating a string: the inside of the literal where it holds no escape,
// the scanner's scratch where it does. They are good until the next call.
func (s *scanner) text() ([]byte, bool) {
	raw, escapes, ok := s.quoted()
	if !escapes {
		return raw, ok
	}
	if cap(s.scratch) < len(raw) {
		// With room to spare for the strings that follow.
		s.scratch = make([]byte, 0, 2*len(raw))
	}
	out := s.scratch[:0]
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			return append(out, raw...), true
		}
		out = append(out, raw[:k]...)
		r, n, ok := escape(raw[k+1:])
		if !ok {
			return nil, false
		}
		out = utf8.AppendRune(out, r)
		raw = raw[k+1+n:]
	}
}

// escape decodes one escape sequence past its backslash — quoted has seen
// that a byte follows every backslash — into the rune it stands for and the
// number of bytes of b that spell it.
func escape(b []byte) (r rune, n int, ok bool) {
	switch b[0] {
	case '"', '\\', '/':
		return rune(b[0]), 1, true
	case 'b':
		return '\b', 1, true
	case 'f':
		return '\f', 1, true
	case 'n':
		return '\n', 1, true
	case 'r':
		return '\r', 1, true
	case 't':
		return '\t', 1, true
	case 'u':
		// A surrogate half pairs with (or is replaced because of) what
		// follows it: encoding/json's business.
		if r, ok := hex4(b[1:]); ok && (r < 0xD800 || r >= 0xE000) {
			return r, 5, true
		}
	}
	return 0, 0, false
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

// AppendPredictRequest appends to dst the bytes
// json.Encoder.Encode(PredictRequest{Queries: …}) writes for one query per
// element of sqls — the batch form, HTML-escaped strings, trailing newline —
// which is a body DecodePredictRequest takes on its fast path whenever the
// SQL is ASCII.
func AppendPredictRequest(dst []byte, sqls []string) []byte {
	if len(sqls) == 0 {
		return append(dst, "{}\n"...) // omitempty
	}
	dst = append(dst, `{"queries":[`...)
	for i, sql := range sqls {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"sql":`...)
		dst = AppendJSONString(dst, sql)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// DecodePredictResponse decodes the body of a successful POST /v1/predict
// into resp, which must be zero, exactly as json.Unmarshal(data, resp) does.
// The shape AppendPredictResponse writes — {"version":s,"model":{…},
// "results":[{…},…]} — is scanned in one pass under the request decoder's
// rules: exact lower-case unescaped keys, each at most once per object (in
// any order, any of them absent); strings with the simple escapes and
// non-surrogate \uXXXX, and here also with valid UTF-8 as it stands (the
// daemon echoes a query's text unescaped, and encoding/json copies it
// verbatim); whitespace anywhere. Numbers are checked against the
// JSON grammar and converted by the calls encoding/json makes for these
// fields, strconv.ParseFloat(…, 64) and, for generation, ParseInt(…, 10, 64).
// The model block is cold and full of optional fields: its extent is found
// by matching braces outside strings and the sub-slice is json.Unmarshal's,
// as the block is json.Marshal's in the encoder.
//
// Any other input — null anywhere, an unknown, case-variant or repeated key,
// a value of the wrong type, a number out of range or a fraction for
// generation, a control byte or a byte that starts no UTF-8 sequence outside
// the model block, a surrogate escape, trailing data, a syntax error, a model
// block encoding/json finds fault with — is handed unchanged to json.Unmarshal, so
// what those inputs decode to, and the text of their errors, is
// encoding/json's by construction. Which path runs depends on data alone.
//
// The fast path allocates the results, one slab for all their Metrics, the
// model block, and a string per value that is not one of the few a daemon
// nearly always sends (intern). echo is the SQL the response answers, query
// by query: a result whose sql equals echo[i] — the daemon echoes it — gets
// that string instead of a copy of its own.
func DecodePredictResponse(data []byte, resp *PredictResponse, echo ...string) (fallback bool, err error) {
	s := scanner{data: data, rawUTF8: true}
	if fast, ok := s.response(echo); ok {
		*resp = fast
		return false, nil
	}
	return true, json.Unmarshal(data, resp)
}

// The keys of the response's objects, in wire order (the order of the struct
// fields, asserted by TestCodecKeysMatchStructTags), and their indices.
var (
	responseKeys = []string{`"version"`, `"model"`, `"results"`}
	resultKeys   = []string{`"sql"`, `"metrics"`, `"category"`, `"confidence"`, `"optimizer_cost"`,
		`"generation"`, `"shard"`, `"fallback_shard"`, `"model_kind"`, `"error"`}
	errorKeys = []string{`"code"`, `"message"`}
)

// metricNames are the keys of the metrics object as the decoder looks for
// them; metricKeys the same between the separators the encoder writes
// (asserted against encoding/json by TestMetricKeysMatchNames).
var metricNames, metricKeys = func() (names, keys [exec.NumMetrics]string) {
	for i, name := range exec.MetricNames {
		names[i] = `"` + name + `"`
		keys[i] = "," + names[i] + ":"
	}
	keys[0] = "{" + names[0] + ":"
	return names, keys
}()

const (
	keyVersion = iota
	keyModel
	keyResults
)

const (
	keySQL = iota
	keyMetrics
	keyCategory
	keyConfidence
	keyOptimizerCost
	keyGeneration
	keyShard
	keyFallbackShard
	keyModelKind
	keyError
)

const (
	keyCode = iota
	keyMessage
)

func (s *scanner) response(echo []string) (resp PredictResponse, ok bool) {
	o := object{names: responseKeys}
	for k := s.member(&o); k != endObject; k = s.member(&o) {
		switch k {
		case keyVersion:
			resp.Version, ok = s.interned()
		case keyModel:
			resp.Model, ok = s.model()
		case keyResults:
			resp.Results, ok = s.results(echo)
		default:
			ok = false
		}
		if !ok {
			return resp, false
		}
	}
	s.space()
	return resp, s.i == len(s.data)
}

// model hands the model object to encoding/json.
func (s *scanner) model() (*ModelInfo, bool) {
	s.space()
	start := s.i
	if !s.skipObject() {
		return nil, false
	}
	m := new(ModelInfo)
	if json.Unmarshal(s.data[start:s.i], m) != nil {
		return nil, false
	}
	return m, true
}

// skipObject moves past the brace that closes the one at the cursor, not
// counting braces inside strings. Whether what lies between is JSON is for
// whoever decodes it to say; if it is, it is exactly one object.
func (s *scanner) skipObject() bool {
	data, depth := s.data, 0
	if s.i == len(data) || data[s.i] != '{' {
		return false
	}
	for i := s.i; i < len(data); i++ {
		switch data[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				s.i = i + 1
				return true
			}
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		}
	}
	return false
}

// results scans [{…},…]. An empty array is a non-nil empty slice, as
// encoding/json makes it.
func (s *scanner) results(echo []string) (rs []QueryResult, ok bool) {
	if !s.token('[') {
		return nil, false
	}
	if s.token(']') {
		return []QueryResult{}, true
	}
	var slab []Metrics // Metrics of the results to come; never grown, so pointers into it hold
	for {
		s.space()
		start := s.i
		var sql string
		if len(rs) < len(echo) {
			sql = echo[len(rs)]
		}
		var m Metrics
		r, hasMetrics, ok := s.result(sql, &m)
		if !ok {
			return nil, false
		}
		if rs == nil {
			// Sized once from the first element, as the request's queries are.
			rs = make([]QueryResult, 0, min(1+(len(s.data)-s.i)/(s.i-start+1), maxQueriesHint))
		}
		if hasMetrics {
			if len(slab) == cap(slab) {
				slab = make([]Metrics, 0, max(cap(rs)-len(rs), 1))
			}
			slab = append(slab, m)
			r.Metrics = &slab[len(slab)-1]
		}
		rs = append(rs, r)
		if s.token(']') {
			return rs, true
		}
		if !s.token(',') {
			return nil, false
		}
	}
}

// result scans one element of results. Its metrics, if it has any, go to *m
// for the caller to place.
func (s *scanner) result(echo string, m *Metrics) (r QueryResult, hasMetrics, ok bool) {
	o := object{names: resultKeys}
	for k := s.member(&o); k != endObject; k = s.member(&o) {
		switch k {
		case keySQL:
			var b []byte
			if b, ok = s.text(); string(b) == echo {
				r.SQL = echo
			} else {
				r.SQL = string(b)
			}
		case keyMetrics:
			hasMetrics = true
			ok = s.metrics(m)
		case keyCategory:
			r.Category, ok = s.interned()
		case keyConfidence:
			r.Confidence, ok = s.float()
		case keyOptimizerCost:
			r.OptimizerCost, ok = s.float()
		case keyGeneration:
			r.Generation, ok = s.int()
		case keyShard:
			r.Shard, ok = s.str()
		case keyFallbackShard:
			r.FallbackShard, ok = s.str()
		case keyModelKind:
			r.ModelKind, ok = s.interned()
		case keyError:
			r.Error, ok = s.failure()
		default:
			ok = false
		}
		if !ok {
			return r, false, false
		}
	}
	return r, hasMetrics, true
}

func (s *scanner) metrics(m *Metrics) bool {
	dst := [exec.NumMetrics]*float64{&m.ElapsedSec, &m.RecordsAccessed, &m.RecordsUsed, &m.DiskIOs, &m.MessageCount, &m.MessageBytes}
	o := object{names: metricNames[:]}
	for k := s.member(&o); k != endObject; k = s.member(&o) {
		if k == declined {
			return false
		}
		var ok bool
		if *dst[k], ok = s.float(); !ok {
			return false
		}
	}
	return true
}

func (s *scanner) failure() (*Error, bool) {
	e := new(Error)
	o := object{names: errorKeys}
	for k := s.member(&o); k != endObject; k = s.member(&o) {
		var ok bool
		switch k {
		case keyCode:
			e.Code, ok = s.str()
		case keyMessage:
			e.Message, ok = s.str()
		}
		if !ok {
			return nil, false
		}
	}
	return e, true
}

// internTable holds what version, category and model_kind nearly always
// spell (Version, workload.Category's names, core.ModelKind); a wrong or
// missing entry costs an allocation, never a value.
var internTable = [...]string{Version, "feather", "golf_ball", "bowling_ball", "wrecking_ball", "kcca"}

// interned scans one string value, without allocating when it is in
// internTable.
func (s *scanner) interned() (string, bool) {
	b, ok := s.text()
	for _, known := range internTable {
		if string(b) == known {
			return known, ok
		}
	}
	return string(b), ok
}

// number scans one number literal of the JSON grammar (after optional
// whitespace): -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What follows
// it is the caller's to judge.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	data, i := s.data, s.i
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(data) && data[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := data[s.i:i]
	s.i = i
	return lit, true
}

// float scans a number into a float64 field as encoding/json does; a literal
// out of float64's range is its error to word.
func (s *scanner) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int scans a number into an int64 field as encoding/json does; a fraction,
// an exponent or a literal out of range is its error to word.
func (s *scanner) int() (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
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
// ignore their fragment. costs is empty or parallel to resp.Results too, and
// does the same for each result's OptimizerCost alone (the serving layer
// hangs one on every plan-cache entry, dataset.PlanMemo.Cost); FragmentUse
// does not count them.
//
// Unlike encoding/json, which refuses the whole response, a result holding a
// NaN or ±Inf is encoded as a per-result failure — sql, shard, a finite
// optimizer_cost, and error{internal, "prediction is not finite (<field>)"}
// — and the results beside it are unaffected.
func AppendPredictResponse(dst []byte, resp *PredictResponse, frags []*Fragment, costs ...*Fragment) ([]byte, FragmentUse, error) {
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
			var frag, cost *Fragment
			if frags != nil {
				frag = frags[i]
			}
			if costs != nil {
				cost = costs[i]
			}
			out = appendResult(out, &resp.Results[i], frag, cost, &use)
		}
		out = append(out, ']')
	}
	return append(out, '}', '\n'), use, nil
}

// appendMemoFloat appends f as AppendJSONFloat does, copying the bytes from
// memo when it is filled and filling it when it is empty (a nil memo is
// neither). The caller vouches that memo holds, or will hold, f's bytes.
func appendMemoFloat(dst []byte, f float64, memo *Fragment) []byte {
	if memo == nil {
		return AppendJSONFloat(dst, f)
	}
	if p := memo.Load(); p != nil {
		return append(dst, *p...)
	}
	start := len(dst)
	dst = AppendJSONFloat(dst, f)
	stored := bytes.Clone(dst[start:])
	memo.Store(&stored)
	return dst
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

func appendResult(dst []byte, r *QueryResult, frag, cost *Fragment, use *FragmentUse) []byte {
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
		// Finite here: a result whose cost is not was replaced above.
		field(`"optimizer_cost":`)
		dst = appendMemoFloat(dst, r.OptimizerCost, cost)
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
