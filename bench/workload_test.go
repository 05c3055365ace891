package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// sent is everything a two-second run sends, as bytes.
func sent(t *testing.T, seed int64, sp spec) []byte {
	t.Helper()
	p := sp.at(2, stock, 2)
	in, err := generate(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal([]any{in, p.predictRequests(in, 0, p.warm), p.predictRequests(in, p.warm, p.predicts), p.observeRequests(in)})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	// Between them these two send every kind of input: both pools, the
	// observe stream and the held-out set.
	for _, name := range []string{"batch-cold", "feedback-mixed"} {
		sp, _ := specByName(name)
		a, b := sent(t, 7, sp), sent(t, 7, sp)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", sp.Name)
		}
		if c := sent(t, 8, sp); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", sp.Name)
		}
	}
}

func TestPoolsAreDistinctAndSized(t *testing.T) {
	sp, _ := specByName("batch-cold")
	p := sp.at(runSeconds, stock, 2)
	in, err := generate(3, p)
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(sqls []string) int {
		seen := map[string]bool{}
		for _, s := range sqls {
			seen[s] = true
		}
		return len(seen)
	}
	if n := distinct(in.Cold); n < 16384 || n != len(in.Cold) {
		t.Errorf("cold pool: %d distinct of %d, want at least 16384 and no repeats", n, len(in.Cold))
	}
	if n := distinct(in.Hot); n > 200 || n != len(in.Hot) {
		t.Errorf("hot pool: %d distinct of %d, want at most 200 and no repeats", n, len(in.Hot))
	}
	if len(in.Heldout) != stock.heldout {
		t.Errorf("%d held-out queries, want %d", len(in.Heldout), stock.heldout)
	}
	// The cyclic walk never revisits a query within one plan cache's worth.
	reqs := p.predictRequests(in, p.warm, stock.planCache/p.batch)
	var flat []string
	for _, r := range reqs {
		flat = append(flat, r.SQLs...)
	}
	if n := distinct(flat); n != len(flat) {
		t.Errorf("%d consecutive cold queries hold only %d distinct", len(flat), n)
	}
}

// The counts every run of feedback-mixed must reproduce follow from the
// schedule alone.
func TestFeedbackPlanFixesTheWork(t *testing.T) {
	sp, _ := specByName("feedback-mixed")
	p := sp.at(runSeconds, stock, 2)
	if p.conns != 1 {
		t.Errorf("feedback-mixed predicts over %d connections, want 1 beside the observe stream", p.conns)
	}
	if p.swaps() < 2 {
		t.Errorf("%d observes trigger %d retrains, want several", p.observes, p.swaps())
	}
	if p.walTail() == 0 {
		t.Errorf("%d+%d observes leave no WAL tail behind the snapshot every %d", p.window, p.observes, p.snapshotEvery)
	}
	if p.predicts < (minBeyond+1)*100 {
		t.Errorf("%d predicts cannot support a p99 with %d samples beyond it", p.predicts, minBeyond)
	}
}
