package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
)

// u is the two bytes that open a \u escape, kept apart from its digits so
// this source holds the escapes it tests as text, not as characters.
const u = `\` + `u`

// decodeSeeds are request bodies on both sides of the fast path's border;
// fast says which side.
var decodeSeeds = []struct {
	body string
	fast bool
}{
	{`{"sql":"SELECT 1"}`, true},
	{`{"queries":[{"sql":"a"},{"sql":"b"}]}`, true},
	{`{"queries":[{"sql":"b"}],"sql":"a"}`, true},
	{`{}`, true},
	{`{"queries":[]}`, true},
	{`{"queries":[{},{"sql":""}]}`, true},
	{" \t\r\n{ \n\"queries\" \t: [ \r{ \"sql\" : \"a\" } , { } ] , \"sql\" : \"\" } \n", true},
	{`{"sql":"q \" b \\ s \/ \b\f\n\r\t"}`, true},
	{`{"sql":"a ` + u + `003c b ` + u + `00e9 ` + u + `20AC ` + u + `0000 ` + u + `fFfF"}`, true},
	{"{\"sql\":\"del \x7f ok\"}", true},
	// Everything below is encoding/json's.
	{``, false},
	{` `, false},
	{`null`, false},
	{`[]`, false},
	{`"sql"`, false},
	{`{"sql":null}`, false},
	{`{"queries":null}`, false},
	{`{"queries":[null]}`, false},
	{`{"sql":1}`, false},
	{`{"sql":{"sql":"a"}}`, false},
	{`{"queries":{"sql":"a"}}`, false},
	{`{"queries":["a"]}`, false},
	{`{"queries":[[{"sql":"a"}]]}`, false},
	{`{"SQL":"a"}`, false},
	{`{"Sql":"a","sql":"b"}`, false},
	{`{"QUERIES":[{"SQL":"a"}]}`, false},
	{`{"s` + u + `0071l":"a"}`, false},
	{`{"sql":"a","sql":"b"}`, false},
	{`{"queries":[{"sql":"a"}],"queries":[{"sql":"b"},{"sql":"c"}]}`, false},
	{`{"queries":[{"sql":"a","sql":"b"}]}`, false},
	{`{"sql":"a","extra":{"deep":[1,2,{"x":null}]}}`, false},
	{`{"queries":[{"sql":"a","hint":true}]}`, false},
	{`{"sql":"` + u + `d83d` + u + `de00"}`, false},
	{`{"sql":"lone ` + u + `d83d"}`, false},
	{`{"sql":"low ` + u + `de00 first"}`, false},
	{`{"sql":"café raw"}`, false},
	{"{\"sql\":\"bad \xff utf8\"}", false},
	{"{\"sql\":\"ctl \x01\"}", false},
	{"{\"sql\":\"raw\ttab\"}", false},
	{`{"sql":"a"} x`, false},
	{`{"sql":"a"}{"sql":"b"}`, false},
	{`{"sql":"a",}`, false},
	{`{,"sql":"a"}`, false},
	{`{"sql":"a" "queries":[]}`, false},
	{`{"queries":[{"sql":"a"},]}`, false},
	{`{"queries":[,]}`, false},
	{`{"sql":"\x41"}`, false},
	{`{"sql":"` + u + `00g1"}`, false},
	{`{"sql":"` + u + `12"}`, false},
	{`{"sql":"unterminated`, false},
	{`{"sql":"a\`, false},
	{`{"sql"`, false},
	{`{"queries":[{"sql":"a"}`, false},
	{`{"sql" "a"}`, false},
	{"{\"sql\":\"a\"}\x00", false},
	{"\xef\xbb\xbf{\"sql\":\"a\"}", false},
}

// checkDecode holds DecodePredictRequest to json.Unmarshal on one body:
// same value, same error text; and reports whether the fast path served.
func checkDecode(t testing.TB, data []byte) (fast bool) {
	t.Helper()
	var got, want PredictRequest
	fallback, gotErr := DecodePredictRequest(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q (fallback=%v): decoded %#v, encoding/json %#v", data, fallback, got, want)
	}
	return !fallback
}

func TestDecodePredictRequestSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		if fast := checkDecode(t, []byte(s.body)); fast != s.fast {
			t.Errorf("%q: fast path = %v, want %v", s.body, fast, s.fast)
		}
	}
}

func FuzzDecodePredictRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Add(canonicalBatch(3))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// stockSQL is the shape of the daemon's traffic: comparison operators (which
// encoding/json clients send as \u escapes), quotes, a newline.
func stockSQL(i int) string {
	return fmt.Sprintf("SELECT COUNT(*), SUM(ss_net_paid) FROM store_sales, item, date_dim\n"+
		"WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND i_category = 'v%d' "+
		"AND d_year >= %d AND ss_quantity < %d AND i_brand <> \"b&b\" GROUP BY i_brand ORDER BY 2 DESC LIMIT 100",
		i%7, 1998+i%5, 10+i)
}

// canonicalBatch is an n-query predict body as encoding/json clients send
// it, and pkg/qpredictclient through AppendPredictRequest.
func canonicalBatch(n int) []byte {
	req := PredictRequest{Queries: make([]QueryInput, n)}
	for i := range req.Queries {
		req.Queries[i].SQL = stockSQL(i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// TestCanonicalBatchNeverFallsBack: what the repository's own clients send —
// encoding/json's bytes, which AppendPredictRequest's are — is served by the
// fast path, at one allocation per query plus the request and the slice.
func TestCanonicalBatchNeverFallsBack(t *testing.T) {
	single, err := json.Marshal(PredictRequest{SQL: stockSQL(0)})
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for i := 0; i < 64; i++ {
		sqls = append(sqls, stockSQL(i))
	}
	sent := AppendPredictRequest(nil, sqls)
	if string(sent) != string(canonicalBatch(64))+"\n" {
		t.Errorf("AppendPredictRequest is not the canonical batch: %.80s…", sent)
	}
	for _, body := range [][]byte{canonicalBatch(64), canonicalBatch(1), single, sent, AppendPredictRequest(nil, sqls[:1])} {
		if !checkDecode(t, body) {
			t.Errorf("fallback on a canonical body: %.80s…", body)
		}
	}
	body := canonicalBatch(64)
	allocs := testing.AllocsPerRun(50, func() {
		var req PredictRequest
		if fallback, err := DecodePredictRequest(body, &req); fallback || err != nil || len(req.Queries) != 64 {
			t.Fatalf("fallback=%v err=%v n=%d", fallback, err, len(req.Queries))
		}
	})
	t.Logf("64-query canonical body: %.0f allocs per decode", allocs)
	if allocs > 66 {
		t.Errorf("decode allocates %.0f per 64-query body, bound 66", allocs)
	}
}

// TestWordScansMatchByteTables holds the eight-bytes-at-a-time string scans
// to the byte tables they stand in for: a word passes exactly when every
// byte of it does. Every pair of byte values is tried at every position —
// a filler in seven lanes and another byte in the eighth — which is where a
// borrow from one lane into the next would show.
func TestWordScansMatchByteTables(t *testing.T) {
	for fill := 0; fill < 256; fill++ {
		for b := 0; b < 256; b++ {
			for pos := 0; pos < 8; pos++ {
				word := bytes.Repeat([]byte{byte(fill)}, 8)
				word[pos] = byte(b)
				w := binary.LittleEndian.Uint64(word)
				if got, want := unquotedWord(w), unquoted[fill] && unquoted[b]; got != want {
					t.Fatalf("unquotedWord(% x) = %v, the table says %v", word, got, want)
				}
				want := 0
				if copiedAsIs[fill] && copiedAsIs[b] {
					want = 8
				}
				if got := copiedWords(string(word), 0); got != want {
					t.Fatalf("copiedWords(% x) = %d, the table says %d", word, got, want)
				}
			}
		}
	}
}

func TestMetricKeysMatchNames(t *testing.T) {
	for i, name := range exec.MetricNames {
		if key := strings.Trim(metricKeys[i], `{,:"`); key != name {
			t.Errorf("metric %d: key %q, exec.MetricNames %q", i, key, name)
		}
	}
	raw, _ := json.Marshal(Metrics{})
	var got []byte
	for _, k := range metricKeys {
		got = append(append(got, k...), '0')
	}
	if string(got)+"}" != string(raw) {
		t.Errorf("metric keys spell %s}, encoding/json %s", got, raw)
	}
}

// wireFloats are the values float formatting and the omitempty rules turn
// on, and the three JSON has no number for.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 123.456, 0.1, 1.0 / 3.0,
	1e-6, 9.999999999999999e-7, 1e-7, 2.5e-9, -1e-7,
	1e21, 9.999999999999999e20, -1e21, 1e100, 1e-100,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1234567890123456789, 3.0000000000000004, 1e308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var wireStrings = []string{
	"", "feather", "SELECT 1", `a "quoted" \ b`, "tab\tnl\ncr\r\b\f", "ctl\x00\x01\x1f\x7f",
	"html <b>&amp;</b>", "héllo — ツ 🚀", "sep \xe2\x80\xa8 and \xe2\x80\xa9", "bad \xff\xfe \xe2\x80 \xc3",
	strings.Repeat("x", 70),
}

// byteSource deals the fields of a response from fuzz input; an exhausted
// source deals zeros.
type byteSource struct{ data []byte }

func (s *byteSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *byteSource) float() float64 {
	sel := int(s.byte())
	if sel < len(wireFloats) {
		return wireFloats[sel]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(s.byte())
	}
	return math.Float64frombits(bits)
}

func (s *byteSource) str() string {
	sel := int(s.byte())
	if sel < len(wireStrings) {
		return wireStrings[sel]
	}
	n := min(sel%24, len(s.data))
	str := string(s.data[:n])
	s.data = s.data[n:]
	return str
}

// Presence bits of one generated result.
const (
	hasSQL = 1 << iota
	hasMetrics
	hasCategory
	hasConfidence
	hasCost
	hasGeneration
	hasShard
	hasFallbackShard
	hasModelKind
	hasError
	hasFragment
	repeatsPrevious // same run as the previous result, and its fragment
	presenceBits    = iota
)

// response builds a PredictResponse and its fragments from fuzz input.
func (s *byteSource) response() (PredictResponse, []*Fragment) {
	resp := PredictResponse{Version: Version}
	switch s.byte() % 4 {
	case 1:
		resp.Model = &ModelInfo{Generation: 3, TrainedOn: 800, Features: "query-plan", ModelKind: "kcca"}
	case 2:
		resp.Model = &ModelInfo{Generation: 1, Features: s.str(), TwoStep: true, Shards: 2, Partitioner: "hash",
			Index: &IndexInfo{Kind: "kdtree", Metric: "euclidean", Points: 800, Nodes: 1599, MinPoints: 64}}
	case 3:
		resp.Version = s.str()
	}
	n := int(s.byte()) % 9
	if n == 8 {
		return resp, nil // "results":null
	}
	resp.Results = make([]QueryResult, n)
	frags := make([]*Fragment, n)
	for i := range resp.Results {
		s.result(int(s.byte())|int(s.byte())<<8, resp.Results, frags, i)
	}
	if s.byte()%8 == 7 {
		frags = nil
	}
	return resp, frags
}

func (s *byteSource) result(presence int, results []QueryResult, frags []*Fragment, i int) {
	r := &results[i]
	if presence&hasSQL != 0 {
		r.SQL = s.str()
	}
	if presence&repeatsPrevious != 0 && i > 0 {
		prev := &results[i-1]
		r.Metrics, r.Category, r.Confidence = prev.Metrics, prev.Category, prev.Confidence
		frags[i] = frags[i-1]
	} else {
		if presence&hasMetrics != 0 {
			r.Metrics = &Metrics{s.float(), s.float(), s.float(), s.float(), s.float(), s.float()}
		}
		if presence&hasCategory != 0 {
			r.Category = s.str()
		}
		if presence&hasConfidence != 0 {
			r.Confidence = s.float()
		}
		if presence&hasFragment != 0 {
			frags[i] = new(Fragment)
		}
	}
	if presence&hasCost != 0 {
		r.OptimizerCost = s.float()
	}
	if presence&hasGeneration != 0 {
		r.Generation = int64(int8(s.byte())) << (s.byte() % 56)
	}
	if presence&hasShard != 0 {
		r.Shard = s.str()
	}
	if presence&hasFallbackShard != 0 {
		r.FallbackShard = s.str()
	}
	if presence&hasModelKind != 0 {
		r.ModelKind = s.str()
	}
	if presence&hasError != 0 {
		r.Error = &Error{Code: s.str(), Message: s.str()}
	}
}

// notFinite is the oracle's own statement of the non-finite policy: the
// first field, in wire order, that is NaN or ±Inf.
func notFinite(r *QueryResult) string {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	if m := r.Metrics; m != nil {
		for i, v := range []float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed, m.DiskIOs, m.MessageCount, m.MessageBytes} {
			if bad(v) {
				return exec.MetricNames[i]
			}
		}
	}
	if bad(r.Confidence) {
		return "confidence"
	}
	if bad(r.OptimizerCost) {
		return "optimizer_cost"
	}
	return ""
}

// encodeOracle is what the wire must carry: json.Encoder's bytes for resp
// once each non-finite result has been replaced by its per-result failure.
func encodeOracle(t testing.TB, resp PredictResponse) []byte {
	t.Helper()
	if resp.Results != nil {
		resp.Results = append([]QueryResult{}, resp.Results...)
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		field := notFinite(r)
		if field == "" {
			continue
		}
		failed := QueryResult{SQL: r.SQL, Shard: r.Shard,
			Error: &Error{Code: CodeInternal, Message: "prediction is not finite (" + field + ")"}}
		if !math.IsNaN(r.OptimizerCost) && !math.IsInf(r.OptimizerCost, 0) {
			failed.OptimizerCost = r.OptimizerCost
		}
		*r = failed
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return buf.Bytes()
}

// checkEncode holds AppendPredictResponse to the oracle three times over:
// without fragments, filling them, and served from them; and checks the
// counts it reports.
func checkEncode(t testing.TB, resp PredictResponse, frags []*Fragment) {
	t.Helper()
	want := encodeOracle(t, resp)
	prefix := []byte("prefix|")
	plain, use, err := AppendPredictResponse(prefix, &resp, nil)
	if err != nil || use != (FragmentUse{}) {
		t.Fatalf("no fragments: use %+v, err %v", use, err)
	}
	if string(plain) != "prefix|"+string(want) {
		t.Fatalf("%+v\n got: %s\nwant: %s", resp, plain[len(prefix):], want)
	}
	filling, first, err := AppendPredictResponse(nil, &resp, frags)
	if err != nil || string(filling) != string(want) {
		t.Fatalf("filling fragments (err %v): %+v\n got: %s\nwant: %s", err, resp, filling, want)
	}
	served, second, err := AppendPredictResponse(nil, &resp, frags)
	if err != nil || string(served) != string(want) {
		t.Fatalf("from fragments (err %v): %+v\n got: %s\nwant: %s", err, resp, served, want)
	}
	if second.Fills != 0 || second.Hits != first.Hits+first.Fills {
		t.Fatalf("fragment use: first pass %+v, second %+v", first, second)
	}
	distinct := map[*Fragment]bool{}
	for i, f := range frags {
		if f != nil && resp.Results[i].Metrics != nil && notFinite(&resp.Results[i]) == "" {
			distinct[f] = true
		}
	}
	if first.Fills != len(distinct) {
		t.Fatalf("%d fragments filled, %d belong to a finite result: %+v", first.Fills, len(distinct), resp)
	}
}

func FuzzAppendPredictResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0xff, 0x07, 2, 2, 3, 4, 5, 6, 7, 1, 8, 9, 0xff, 0x0f, 3})
	f.Add([]byte{0, 2, 0x0a, 0x04, 26, 2, 2, 2, 2, 2, 0x1a, 0x04, 2, 2, 2, 27, 2, 2, 2})
	f.Add([]byte{2, 40, 1, 0x03, 0x0e, 6, 1, 1, 1, 1, 1, 1, 1, 3, 4, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteSource{data}
		resp, frags := s.response()
		checkEncode(t, resp, frags)
	})
}

// TestAppendPredictResponseMatchesEncoder is the deterministic sweep: every
// presence combination of a result's fields, the cross product of the wire's
// edge floats and strings, and a seeded random pass through the fuzzer's own
// generator.
func TestAppendPredictResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random := func(n int) *byteSource {
		b := make([]byte, n)
		rng.Read(b)
		return &byteSource{b}
	}
	for presence := 0; presence < 1<<presenceBits; presence++ {
		results, frags := make([]QueryResult, 2), make([]*Fragment, 2)
		s := random(128)
		s.result(hasSQL|hasMetrics|hasCategory|hasConfidence|hasFragment, results, frags, 0)
		s.result(presence, results, frags, 1)
		checkEncode(t, PredictResponse{Version: Version, Results: results}, frags)
	}
	for i, f := range wireFloats {
		for j, str := range wireStrings {
			next := func(k int) float64 { return wireFloats[(i+k)%len(wireFloats)] }
			r := QueryResult{
				SQL: str, Metrics: &Metrics{f, next(1), next(2), next(3), next(4), next(5)},
				Category: wireStrings[(j+1)%len(wireStrings)], Confidence: next(6), OptimizerCost: next(7),
				Generation: int64(i - 3), Shard: wireStrings[(j+2)%len(wireStrings)], ModelKind: str,
			}
			failed := QueryResult{SQL: str, OptimizerCost: f, Error: &Error{Code: CodeParse, Message: str}}
			checkEncode(t, PredictResponse{Version: Version, Results: []QueryResult{r, failed, r}},
				[]*Fragment{new(Fragment), nil, new(Fragment)})
		}
	}
	for i := 0; i < 3000; i++ {
		resp, frags := random(16 + rng.Intn(240)).response()
		checkEncode(t, resp, frags)
	}
	checkEncode(t, PredictResponse{}, nil)
	checkEncode(t, PredictResponse{Version: Version, Results: []QueryResult{}}, nil)
}

// TestCostFragmentsMatchEncoder holds the optimizer-cost fragments to the
// oracle: beside a served result, an error result and one that fails for a
// non-finite metric, for every edge float as the cost, the body is
// encoding/json's without fragments, while filling them and served from
// them; a fragment is filled exactly when its cost is written, with what
// AppendJSONFloat writes; and FragmentUse does not count them.
func TestCostFragmentsMatchEncoder(t *testing.T) {
	for _, f := range wireFloats {
		served := QueryResult{SQL: "a", Metrics: &Metrics{ElapsedSec: 1}, Category: "feather", Confidence: 0.5, OptimizerCost: f}
		failed := QueryResult{SQL: "b", OptimizerCost: f, Error: &Error{Code: CodePlan, Message: "m"}}
		nonFinite := served
		nonFinite.Metrics = &Metrics{DiskIOs: math.Inf(-1)}
		resp := PredictResponse{Version: Version, Results: []QueryResult{served, failed, nonFinite}}
		want := encodeOracle(t, resp)
		costs := []*Fragment{new(Fragment), new(Fragment), new(Fragment)}
		for pass, costs := range [][]*Fragment{nil, costs, costs} {
			out, use, err := AppendPredictResponse(nil, &resp, nil, costs...)
			if err != nil || string(out) != string(want) || use != (FragmentUse{}) {
				t.Fatalf("cost %v, pass %d (use %+v, err %v)\n got: %s\nwant: %s", f, pass, use, err, out, want)
			}
		}
		for i, c := range costs {
			p := c.Load()
			switch {
			case f == 0 || !finite(f):
				if p != nil {
					t.Fatalf("cost %v, result %d: fragment %q filled, but no cost is written", f, i, *p)
				}
			case p == nil || string(*p) != string(AppendJSONFloat(nil, f)):
				t.Fatalf("cost %v, result %d: fragment %v", f, i, p)
			}
		}
	}
}

// TestNonFiniteResultFailsAlone pins the one place the encoder departs from
// encoding/json: where json.Encoder refuses the whole response, the result
// holding the value fails and the ones beside it are served.
func TestNonFiniteResultFailsAlone(t *testing.T) {
	good := QueryResult{SQL: "a", Metrics: &Metrics{ElapsedSec: 1}, Category: "feather", Confidence: 0.5, OptimizerCost: 7, Generation: 2, ModelKind: "kcca"}
	bad := good
	bad.SQL, bad.Metrics, bad.Shard = "b", &Metrics{ElapsedSec: 1, RecordsAccessed: math.Inf(1), DiskIOs: math.NaN()}, "1"
	resp := PredictResponse{Version: Version, Results: []QueryResult{good, bad, good}}
	if err := json.NewEncoder(new(bytes.Buffer)).Encode(resp); err == nil {
		t.Fatal("encoding/json encoded +Inf")
	}
	frags := []*Fragment{new(Fragment), new(Fragment), nil}
	out, use, err := AppendPredictResponse(nil, &resp, frags)
	if err != nil {
		t.Fatal(err)
	}
	var back PredictResponse
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("%v: %s", err, out)
	}
	want := QueryResult{SQL: "b", OptimizerCost: 7, Shard: "1",
		Error: &Error{Code: CodeInternal, Message: "prediction is not finite (records_accessed)"}}
	if !reflect.DeepEqual(back.Results, []QueryResult{good, want, good}) {
		t.Fatalf("results: %s", out)
	}
	if use != (FragmentUse{Fills: 1}) || frags[1].Load() != nil {
		t.Fatalf("use %+v; a non-finite run was stored: %v", use, frags[1].Load() != nil)
	}
}

// TestModelBlockErrorIsReturned: the model block is encoding/json's, and so
// is its refusal; dst comes back as it went in.
func TestModelBlockErrorIsReturned(t *testing.T) {
	resp := PredictResponse{Version: Version, Results: []QueryResult{},
		Model: &ModelInfo{Index: &IndexInfo{MeanScored: math.NaN()}}}
	out, _, err := AppendPredictResponse([]byte("kept"), &resp, nil)
	if err == nil || string(out) != "kept" {
		t.Fatalf("out %q, err %v", out, err)
	}
}

// hotBatch is a 64-result response of the daemon's shape.
func hotBatch() PredictResponse {
	resp := PredictResponse{Version: Version,
		Model:   &ModelInfo{Generation: 4, TrainedOn: 800, Features: "query-plan", Swaps: 3, WindowSize: 800, ModelKind: "kcca", Index: &IndexInfo{Kind: "kdtree", Metric: "euclidean", Points: 800, Nodes: 1599, MinPoints: 64}},
		Results: make([]QueryResult, 64)}
	rng := rand.New(rand.NewSource(4))
	for i := range resp.Results {
		resp.Results[i] = QueryResult{
			SQL: stockSQL(i),
			Metrics: &Metrics{rng.ExpFloat64() * 10, rng.ExpFloat64() * 1e7, rng.ExpFloat64() * 1e5,
				rng.ExpFloat64() * 1e3, rng.ExpFloat64() * 100, rng.ExpFloat64() * 1e6},
			Category: "golf_ball", Confidence: rng.Float64(), OptimizerCost: rng.ExpFloat64() * 1e5,
			Generation: 4, ModelKind: "kcca",
		}
	}
	return resp
}

var benchSink int

// BenchmarkDecodePredict64 decodes a canonical 64-query body (~21 KB) with
// the codec and with encoding/json.
func BenchmarkDecodePredict64(b *testing.B) {
	body := canonicalBatch(64)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictRequest
			if fallback, err := DecodePredictRequest(body, &req); fallback || err != nil {
				b.Fatal(fallback, err)
			}
			benchSink += len(req.Queries)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			benchSink += len(req.Queries)
		}
	})
}

// BenchmarkAppendPredictResponse64 encodes a 64-result response into a
// reused buffer: formatting every number, copying stored fragments, and
// with a reused json.Encoder.
func BenchmarkAppendPredictResponse64(b *testing.B) {
	resp := hotBatch()
	frags := make([]*Fragment, len(resp.Results))
	for i := range frags {
		frags[i] = new(Fragment)
	}
	var buf []byte
	for name, frags := range map[string][]*Fragment{"codec": nil, "codec-fragments": frags} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _, _ = AppendPredictResponse(buf[:0], &resp, frags)
				benchSink += len(buf)
			}
		})
	}
	b.Run("encoding-json", func(b *testing.B) {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := enc.Encode(&resp); err != nil {
				b.Fatal(err)
			}
			benchSink += out.Len()
		}
	})
}
