package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// The client half of the codec: DecodePredictResponse against json.Unmarshal,
// AppendPredictRequest against json.Encoder.

// oneResult is a canonical result object; responseSeeds varies it.
const oneResult = `{"sql":"SELECT 1","metrics":{"elapsed_time":1.5,"records_accessed":10,"records_used":5,"disk_ios":2,"message_count":0,"message_bytes":0},"category":"feather","confidence":0.9,"optimizer_cost":12.5,"generation":3,"model_kind":"kcca"}`

// preZooPredictBody and zooPredictBody are the captured predict bodies of
// pkg/qpredictclient/compat_test.go: hand-indented, and a model block with
// and without the zoo's fields.
const (
	preZooPredictBody = `{
  "version": "v1",
  "model": {"generation": 3, "trained_on": 500, "features": "plan+text", "two_step": true, "swaps": 2},
  "results": [
    {"sql": "SELECT 1", "metrics": {"elapsed_time": 1.5, "records_accessed": 10, "records_used": 5, "disk_ios": 2, "message_count": 0, "message_bytes": 0}, "category": "feather", "confidence": 0.9, "generation": 3}
  ]
}`
	zooPredictBody = `{
  "version": "v1",
  "model": {"generation": 7, "trained_on": 500, "features": "plan+text", "two_step": true, "swaps": 6, "model_kind": "kcca",
    "champion": {"kind": "kcca", "promotions": 1, "since_generation": 5},
    "challengers": [{"kind": "kcca", "champion": true}, {"kind": "optcost", "streak": 2, "categories": [
      {"category": "feather", "samples": 40, "mean_rel_err": 0.31, "within_20": 0.4}]}]},
  "results": [
    {"sql": "SELECT 1", "metrics": {"elapsed_time": 1.5, "records_accessed": 10, "records_used": 5, "disk_ios": 2, "message_count": 0, "message_bytes": 0}, "category": "feather", "confidence": 0.9, "optimizer_cost": 31.5, "generation": 7, "shard": "1", "fallback_shard": "0", "model_kind": "kcca"},
    {"sql": "SELEC", "shard": "0", "error": {"code": "parse_error", "message": "unexpected \"SELEC\""}}
  ]
}`
)

func wrapResult(result string) string { return `{"version":"v1","results":[` + result + `]}` }

// responseSeeds are response bodies on both sides of the fast path's border.
var responseSeeds = []struct {
	body string
	fast bool
}{
	{wrapResult(oneResult), true},
	{wrapResult(oneResult+","+oneResult) + "\n", true},
	{preZooPredictBody, true},
	{zooPredictBody, true},
	{`{}`, true},
	{`{"results":[]}`, true},
	{`{"results":[{},{"metrics":{}},{"error":{}}],"version":""}`, true},
	{`{"results":[{"model_kind":"kcca","generation":-0,"sql":"out of order"}],"model":{},"version":"v2"}`, true},
	{wrapResult(`{"metrics":{"message_bytes":6,"elapsed_time":1},"confidence":-0,"optimizer_cost":1E+2}`), true},
	{wrapResult(`{"confidence":-0.0e-0,"optimizer_cost":1e-999,"generation":-9223372036854775808}`), true},
	{wrapResult(`{"confidence":4.9e-324,"optimizer_cost":1.7976931348623157e308,"generation":9223372036854775807}`), true},
	{wrapResult(`{"sql":"a ` + u + `003c b ` + u + `00e9 \" \\ \/ \n","category":"none such","model_kind":"` + u + `006bcca","shard":"12"}`), true},
	{wrapResult(`{"error":{"message":"m","code":"c"},"sql":"x"}`), true},
	{`{"version":"v1","model":{"features":"café {\"}","unknown":[{"a":null}],"GENERATION":2,"generation":3},"results":[]}`, true},
	// Valid UTF-8 stands as it is, as the daemon echoes it.
	{wrapResult(`{"sql":"😀"}`), true},
	{wrapResult(`{"sql":"café \n ` + u + `00e9","category":"ツ","shard":"é","error":{"code":"ü","message":"sep \u2028 \ufffd"}}`), true},
	{`{"version":"café"}`, true},
	// Everything below is encoding/json's.
	{``, false},
	{`null`, false},
	{`[]`, false},
	{`{"version":"v1","results":null}`, false},
	{`{"version":null}`, false},
	{`{"version":"v1","model":null,"results":[]}`, false},
	{`{"model":7}`, false},
	{`{"model":{"generation":"three"}}`, false},
	{`{"model":{"generation":3}`, false},
	{`{"model":{"features":"}"}`, false},
	{`{"model":{"a":[}]},"results":[]}`, false},
	{`{"results":[null]}`, false},
	{`{"results":{}}`, false},
	{`{"results":[[]]}`, false},
	{wrapResult(`{"sql":null}`), false},
	{wrapResult(`{"metrics":null}`), false},
	{wrapResult(`{"error":null}`), false},
	{wrapResult(`{"confidence":null}`), false},
	{wrapResult(`{"confidence":"0.5"}`), false},
	{wrapResult(`{"sql":1}`), false},
	{wrapResult(`{"metrics":[1,2,3,4,5,6]}`), false},
	{wrapResult(`{"confidence":1e999}`), false},
	{wrapResult(`{"confidence":-1e999}`), false},
	{wrapResult(`{"generation":1.0}`), false},
	{wrapResult(`{"generation":1e2}`), false},
	{wrapResult(`{"generation":9223372036854775808}`), false},
	{wrapResult(`{"confidence":01}`), false},
	{wrapResult(`{"confidence":+1}`), false},
	{wrapResult(`{"confidence":.5}`), false},
	{wrapResult(`{"confidence":1.}`), false},
	{wrapResult(`{"confidence":1e}`), false},
	{wrapResult(`{"confidence":-}`), false},
	{wrapResult(`{"confidence":0x10}`), false},
	{wrapResult(`{"confidence":1_0}`), false},
	{wrapResult(`{"confidence":NaN}`), false},
	{wrapResult(`{"confidence":Infinity}`), false},
	{wrapResult(`{"confidence":true}`), false},
	{wrapResult(`{"sql":"a","sql":"b"}`), false},
	{wrapResult(`{"metrics":{"elapsed_time":1},"metrics":{"disk_ios":2}}`), false},
	{wrapResult(`{"metrics":{"elapsed_time":1,"elapsed_time":2}}`), false},
	{wrapResult(`{"error":{"code":"a","code":"b"}}`), false},
	{`{"version":"v1","version":"v2"}`, false},
	{`{"results":[],"results":[{}]}`, false},
	{`{"model":{},"model":{"generation":1}}`, false},
	{wrapResult(`{"SQL":"a"}`), false},
	{wrapResult(`{"Metrics":{}}`), false},
	{wrapResult(`{"metrics":{"Elapsed_Time":1}}`), false},
	{`{"Version":"v1"}`, false},
	{wrapResult(`{"s` + u + `0071l":"a"}`), false},
	{wrapResult(`{"hint":true}`), false},
	{wrapResult(`{"metrics":{"cpu":1}}`), false},
	{wrapResult(`{"error":{"code":"a","detail":"b"}}`), false},
	{`{"version":"v1","took_ms":3,"results":[]}`, false},
	{wrapResult(`{"sql":"` + u + `d83d` + u + `de00"}`), false},
	{wrapResult(`{"sql":"lone ` + u + `d83d"}`), false},
	{wrapResult("{\"sql\":\"bad \xff\"}"), false},
	{wrapResult("{\"sql\":\"cut short \xe2\x80\"}"), false},
	{wrapResult("{\"shard\":\"overlong \xc0\xaf\"}"), false},
	{wrapResult("{\"sql\":\"surrogate \xed\xa0\x80\"}"), false},
	{wrapResult("{\"caf\xc3\xa9\":1}"), false},
	{wrapResult("{\"sql\":\"raw\ttab\"}"), false},
	{wrapResult(`{"sql":"\x41"}`), false},
	{wrapResult(oneResult) + ` x`, false},
	{wrapResult(oneResult) + `{}`, false},
	{wrapResult(oneResult + ","), false},
	{wrapResult("," + oneResult), false},
	{wrapResult(oneResult + " " + oneResult), false},
	{wrapResult(`{"sql":"a",}`), false},
	{wrapResult(`{,"sql":"a"}`), false},
	{wrapResult(`{"sql" "a"}`), false},
	{wrapResult(`{"sql":"a" "category":"b"}`), false},
	{wrapResult(`{"metrics":{"elapsed_time":1,}}`), false},
	{wrapResult(`{"sql":"unterminated`), false},
	{`{"version":"v1","results":[` + oneResult, false},
	{`{"version":"v1","results":[` + oneResult + `]`, false},
	{"\xef\xbb\xbf" + wrapResult(oneResult), false},
	{wrapResult(oneResult) + "\x00", false},
}

// sqlsOf lists the sql of every result: what a caller whose queries were
// echoed would have passed as echo.
func sqlsOf(resp *PredictResponse) []string {
	sqls := make([]string, len(resp.Results))
	for i, r := range resp.Results {
		sqls[i] = r.SQL
	}
	return sqls
}

// checkDecodeResponse holds DecodePredictResponse to json.Unmarshal on one
// body — same value (to the sign of a zero), same error text — whatever the
// caller passes as echo, and reports whether the fast path served.
func checkDecodeResponse(t testing.TB, data []byte) (fast bool) {
	t.Helper()
	var want PredictResponse
	wantErr := json.Unmarshal(data, &want)
	echoes := [][]string{nil, sqlsOf(&want), {"not what was asked"}, append(sqlsOf(&want), "", "one too many")}
	for i, echo := range echoes {
		var got PredictResponse
		fallback, gotErr := DecodePredictResponse(data, &got, echo...)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, encoding/json %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q (fallback=%v, echo %d): decoded %+v, encoding/json %+v", data, fallback, i, got, want)
		}
		if i > 0 && fast != !fallback {
			t.Fatalf("%q: the path depends on echo", data)
		}
		fast = !fallback
		if fast {
			if gotErr != nil {
				t.Fatalf("%q: the fast path reported %v", data, gotErr)
			}
			// DeepEqual holds -0 equal to 0; the encoder does not.
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%q: decoded %s, encoding/json %s", data, gotJSON, wantJSON)
			}
		}
	}
	return fast
}

func TestDecodePredictResponseSeeds(t *testing.T) {
	for _, s := range responseSeeds {
		if fast := checkDecodeResponse(t, []byte(s.body)); fast != s.fast {
			t.Errorf("%q: fast path = %v, want %v", s.body, fast, s.fast)
		}
	}
}

// encoded is what the daemon writes for resp, through filled fragments when
// fromFragments is set.
func encoded(t testing.TB, resp PredictResponse, fromFragments bool) []byte {
	t.Helper()
	var frags []*Fragment
	if fromFragments {
		frags = make([]*Fragment, len(resp.Results))
		for i := range frags {
			frags[i] = new(Fragment)
		}
		if _, _, err := AppendPredictResponse(nil, &resp, frags); err != nil {
			t.Fatal(err)
		}
	}
	body, _, err := AppendPredictResponse(nil, &resp, frags)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// daemonBodies are bodies AppendPredictResponse writes: 1 and 64 results
// formatted and from fragments, a sharded batch with a cold-start fallback
// and a per-query error, the per-result envelope of a non-finite
// prediction, and a nil results slice.
func daemonBodies(t testing.TB) [][]byte {
	hot := hotBatch()
	one := PredictResponse{Version: Version, Model: hot.Model, Results: hot.Results[:1]}
	sharded := PredictResponse{Version: Version, Model: &ModelInfo{Generation: 2, TrainedOn: 800, Features: "query-plan", Shards: 2, Partitioner: "hash", ModelKind: "kcca"},
		Results: append([]QueryResult{}, hot.Results[:4]...)}
	for i := range sharded.Results {
		sharded.Results[i].Shard = fmt.Sprint(i % 2)
	}
	sharded.Results[1].FallbackShard = "0"
	sharded.Results[2] = QueryResult{SQL: "SELEC <", Shard: "0", Error: &Error{Code: CodeParse, Message: `unexpected "SELEC" at offset 0`}}
	nonFinite := PredictResponse{Version: Version, Results: append([]QueryResult{}, hot.Results[:3]...)}
	nonFinite.Results[1].Metrics = &Metrics{ElapsedSec: math.Inf(1)}
	var bodies [][]byte
	for _, resp := range []PredictResponse{hot, one, sharded, nonFinite, {Version: Version}} {
		bodies = append(bodies, encoded(t, resp, false), encoded(t, resp, true))
	}
	return bodies
}

// TestDecodePredictResponseDaemonBodies: what the stock daemon writes is
// served by the fast path, all but "results":null.
func TestDecodePredictResponseDaemonBodies(t *testing.T) {
	for _, body := range daemonBodies(t) {
		if fast := checkDecodeResponse(t, body); fast != !bytes.Contains(body, []byte(`"results":null`)) {
			t.Errorf("fast path = %v: %.120s…", fast, body)
		}
	}
}

func FuzzDecodePredictResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s.body))
	}
	for _, body := range daemonBodies(f) {
		f.Add(body)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, daemonBodies(f)[4], "", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeResponse(t, data)
	})
}

// TestDecodePredictResponseRoundTrip drives the decoder with the encoder:
// every presence combination of a result's fields, the wire's edge floats
// and strings, and a seeded random pass through the encoder fuzzer's
// generator. Whatever the body, the value is json.Unmarshal's; and the fast
// path serves every body whose results are not null: the encoder writes
// invalid UTF-8 as an escape and everything else as it is.
func TestDecodePredictResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	random := func(n int) *byteSource {
		b := make([]byte, n)
		rng.Read(b)
		return &byteSource{b}
	}
	fastCount := 0
	check := func(resp PredictResponse) {
		t.Helper()
		body := encoded(t, resp, false)
		if fast := checkDecodeResponse(t, body); fast != (resp.Results != nil) {
			t.Fatalf("fast path = %v: %s", fast, body)
		} else if fast {
			fastCount++
		}
	}
	for presence := 0; presence < 1<<presenceBits; presence++ {
		results, frags := make([]QueryResult, 2), make([]*Fragment, 2)
		s := random(128)
		s.result(hasSQL|hasMetrics|hasCategory|hasConfidence, results, frags, 0)
		s.result(presence, results, frags, 1)
		check(PredictResponse{Version: Version, Results: results})
	}
	for i, f := range wireFloats {
		for j, str := range wireStrings {
			next := func(k int) float64 { return wireFloats[(i+k)%len(wireFloats)] }
			check(PredictResponse{Version: Version, Results: []QueryResult{{
				SQL: str, Metrics: &Metrics{f, next(1), next(2), next(3), next(4), next(5)},
				Category: wireStrings[(j+1)%len(wireStrings)], Confidence: next(6), OptimizerCost: next(7),
				Generation: int64(i - 3), Shard: wireStrings[(j+2)%len(wireStrings)], ModelKind: str,
			}, {SQL: str, OptimizerCost: f, Error: &Error{Code: CodeParse, Message: str}}}})
		}
	}
	for i := 0; i < 3000; i++ {
		resp, _ := random(16 + rng.Intn(240)).response()
		check(resp)
	}
	if fastCount < 1000 {
		t.Errorf("the fast path served %d bodies: the sweep no longer reaches it", fastCount)
	}
}

// TestCodecKeysMatchStructTags: the decoder's key tables are the json tags
// of the structs, in field order. A field added to a struct and not to its
// table would send every body that carries it to encoding/json.
func TestCodecKeysMatchStructTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{PredictRequest{}, requestKeys}, {QueryInput{}, queryKeys},
		{PredictResponse{}, responseKeys}, {QueryResult{}, resultKeys}, {Metrics{}, metricNames[:]}, {Error{}, errorKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, `"`+name+`"`)
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%v: json tags %v, codec keys %v", typ, tags, c.keys)
		}
	}
}

// TestDecodePredictResponseSharesNothing: every result's Metrics is its own
// element of the slab, results beyond the first guess included; echo strings
// are handed back only where the bytes match.
func TestDecodePredictResponseSharesNothing(t *testing.T) {
	// A long first element makes the guessed capacity too small for the rest.
	results := []QueryResult{{SQL: strings.Repeat("x", 2000), Metrics: &Metrics{}}}
	for i := 1; i < 40; i++ {
		results = append(results, QueryResult{SQL: fmt.Sprint("q", i), Metrics: &Metrics{ElapsedSec: float64(i)}})
	}
	body := encoded(t, PredictResponse{Version: Version, Results: results}, false)
	echo := sqlsOf(&PredictResponse{Results: results})
	echo[5] = "asked something else"
	var resp PredictResponse
	if fallback, err := DecodePredictResponse(body, &resp, echo...); fallback || err != nil {
		t.Fatal(fallback, err)
	}
	seen := map[*Metrics]bool{}
	for i, r := range resp.Results {
		if r.Metrics == nil || seen[r.Metrics] || r.Metrics.ElapsedSec != float64(i) || r.SQL != results[i].SQL {
			t.Fatalf("result %d: %+v %+v", i, r, r.Metrics)
		}
		seen[r.Metrics] = true
		r.Metrics.ElapsedSec = -1
	}
}

func TestAppendPredictRequestMatchesEncoder(t *testing.T) {
	batches := [][]string{nil, {}, {""}, {"SELECT 1"}, {"a < b AND c > d & e", "sep \u2028 \u2029", "bad \xff\xfe utf8", "", "héllo ツ 🚀"}, wireStrings}
	for n := 1; n <= 64; n *= 8 {
		var sqls []string
		for i := 0; i < n; i++ {
			sqls = append(sqls, stockSQL(i))
		}
		batches = append(batches, sqls)
	}
	for _, sqls := range batches {
		req := PredictRequest{Queries: make([]QueryInput, len(sqls))}
		for i, sql := range sqls {
			req.Queries[i].SQL = sql
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(req); err != nil {
			t.Fatal(err)
		}
		if got := AppendPredictRequest([]byte("prefix|"), sqls); string(got) != "prefix|"+want.String() {
			t.Errorf("%q\n got: %s\nwant: %s", sqls, got[len("prefix|"):], want.Bytes())
		}
	}
}

// TestDecodePredictResponseAllocs pins the allocation budget of a hot
// 64-result body: a constant (results, metrics slab, model block, escape
// scratch) when the caller's SQL is echoed, one string per result more when
// it is not.
func TestDecodePredictResponseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hot := hotBatch()
	body, echo := encoded(t, hot, true), sqlsOf(&hot)
	for name, c := range map[string]struct {
		echo  []string
		bound float64
	}{"echoed": {echo, 20}, "copied": {nil, 64 + 20}} {
		allocs := testing.AllocsPerRun(50, func() {
			var resp PredictResponse
			if fallback, err := DecodePredictResponse(body, &resp, c.echo...); fallback || err != nil || len(resp.Results) != 64 {
				t.Fatalf("fallback=%v err=%v n=%d", fallback, err, len(resp.Results))
			}
		})
		t.Logf("64-result body, sql %s: %.0f allocs per decode", name, allocs)
		if allocs > c.bound {
			t.Errorf("sql %s: decode allocates %.0f per 64-result body, bound %.0f", name, allocs, c.bound)
		}
	}
}

// BenchmarkDecodePredictResponse64 decodes a hot 64-result body (~37 KB)
// as the client does (its own SQL echoed), without echo, and with
// encoding/json; BenchmarkDecodePredictResponse1 a single result.
func BenchmarkDecodePredictResponse64(b *testing.B) { benchDecodeResponse(b, hotBatch()) }

func BenchmarkDecodePredictResponse1(b *testing.B) {
	hot := hotBatch()
	hot.Results = hot.Results[:1]
	benchDecodeResponse(b, hot)
}

func benchDecodeResponse(b *testing.B, resp PredictResponse) {
	body, echo := encoded(b, resp, true), sqlsOf(&resp)
	for name, echo := range map[string][]string{"codec-echo": echo, "codec": nil} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var resp PredictResponse
				if fallback, err := DecodePredictResponse(body, &resp, echo...); fallback || err != nil {
					b.Fatal(fallback, err)
				}
				benchSink += len(resp.Results)
			}
		})
	}
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var resp PredictResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				b.Fatal(err)
			}
			benchSink += len(resp.Results)
		}
	})
}
