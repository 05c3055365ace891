package qpredict

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDefaultValidates(t *testing.T) {
	opts := Default()
	if err := opts.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	if opts.Serve.Window != 0 {
		t.Fatalf("stock serve.window %v, want 0: an idle engine must not hold its first arrival", opts.Serve.Window)
	}
}

// TestWindowStillConfigurable: the hold window left the stock path, not the
// configuration surface — a file that sets it loads and round-trips, and a
// negative one is rejected.
func TestWindowStillConfigurable(t *testing.T) {
	opts, err := LoadFile(writeConfig(t, `{"serve": {"window": "2ms"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Serve.Window.Std() != 2*time.Millisecond {
		t.Fatalf("serve.window %v, want 2ms", opts.Serve.Window)
	}
	b, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := LoadFile(writeConfig(t, string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if again.Serve.Window != opts.Serve.Window {
		t.Fatalf("serve.window %v after a round trip, want %v", again.Serve.Window, opts.Serve.Window)
	}
	if _, err := LoadFile(writeConfig(t, `{"serve": {"window": "-1ms"}}`)); err == nil {
		t.Fatal("negative serve.window accepted")
	}
}

func TestLoadFilePartialOverridesDefaults(t *testing.T) {
	path := writeConfig(t, `{
		"serve": {"addr": ":9090", "window": "5ms"},
		"state": {"fsync": "always"}
	}`)
	opts, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Serve.Addr != ":9090" || opts.Serve.Window.Std() != 5*time.Millisecond {
		t.Fatalf("serve overrides lost: %+v", opts.Serve)
	}
	// Untouched sections keep their defaults.
	if opts.Serve.MaxBatch != 64 || opts.Train.Count != 800 || opts.Sliding.Capacity != 500 {
		t.Fatalf("defaults perturbed: %+v", opts)
	}
	if opts.State.Fsync != "always" || opts.State.SnapshotEvery != Default().State.SnapshotEvery {
		t.Fatalf("state config wrong: %+v", opts.State)
	}
}

func TestLoadFileRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"serve": {"adress": ":9090"}}`)
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "adress") {
		t.Fatalf("typoed field accepted: %v", err)
	}
}

// TestLoadFileRejectsChampionSection: the champion section of the model
// zoo's era is gone, and a file that still carries one — empty, setting
// any one of its seven knobs, or as the shipped example had it — is
// refused, naming it, rather than loaded with the section silently dropped.
func TestLoadFileRejectsChampionSection(t *testing.T) {
	cases := map[string]string{
		"empty":       `{}`,
		"kind":        `{"kind": "planstruct"}`,
		"challengers": `{"challengers": ["optcost"]}`,
		"window":      `{"window": 256}`,
		"min_samples": `{"min_samples": 20}`,
		"margin":      `{"margin": 0.05}`,
		"hysteresis":  `{"hysteresis": 3}`,
		"cooldown":    `{"cooldown": 200}`,
		"example": `{"kind": "kcca", "challengers": ["planstruct", "optcost"], "window": 256,
			"min_samples": 20, "margin": 0.05, "hysteresis": 3, "cooldown": 200}`,
	}
	for name, section := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeConfig(t, `{"sliding": {"capacity": 500}, "champion": `+section+`}`)
			if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), `"champion"`) {
				t.Fatalf("config with a champion section: %v, want an error naming \"champion\"", err)
			}
		})
	}
}

func TestLoadFileRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"zero max_batch":      `{"serve": {"max_batch": -1}}`,
		"tiny window":         `{"sliding": {"capacity": 3}}`,
		"retrain past window": `{"sliding": {"capacity": 50}}`,
		"bad fsync":           `{"state": {"fsync": "sometimes"}}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadFile(writeConfig(t, body)); err == nil {
				t.Fatalf("invalid config accepted: %s", body)
			}
		})
	}
}

// TestLoadFileRejectsPartitioner: shards.partitioner is gone (more than one
// shard always routes by hash), and a file that still names one — either
// policy the field once took, or any other — is refused, naming it.
func TestLoadFileRejectsPartitioner(t *testing.T) {
	for _, name := range []string{"hash", "category", "roundrobin"} {
		t.Run(name, func(t *testing.T) {
			path := writeConfig(t, `{"shards": {"count": 2, "partitioner": "`+name+`"}}`)
			if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), `"partitioner"`) {
				t.Fatalf("config naming a partitioner: %v, want an error naming \"partitioner\"", err)
			}
		})
	}
}

// TestShardCountWithinCapacity: every shard's share of the window holds the
// training minimum of 5 rows, so the shards together keep no more rows than
// sliding.capacity; a count past capacity/5 is refused, naming both values.
func TestShardCountWithinCapacity(t *testing.T) {
	for _, c := range []struct{ capacity, most int }{{500, 100}, {50, 10}, {5, 1}} {
		opts := Default()
		opts.Sliding.Capacity, opts.Sliding.RetrainEvery = c.capacity, c.capacity
		opts.Shards.Count = c.most
		if err := opts.Validate(); err != nil {
			t.Errorf("capacity %d: %d shards refused: %v", c.capacity, c.most, err)
		}
		opts.Shards.Count = c.most + 1
		want := fmt.Sprintf("shards.count %d exceeds sliding.capacity %d", c.most+1, c.capacity)
		if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("capacity %d: %d shards: %v, want an error containing %q", c.capacity, c.most+1, err, want)
		}
	}
	if _, err := LoadFile(writeConfig(t, `{"shards": {"count": 200}}`)); err == nil || !strings.Contains(err.Error(), "shards.count 200") {
		t.Fatalf("200 shards over the default 500-row window: %v", err)
	}
}

// TestRetrainEveryWithinCapacity: one rule for every shard count, before
// anything is opened — a retrain interval longer than the window is refused,
// one equal to it is the longest allowed.
func TestRetrainEveryWithinCapacity(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		opts := Default()
		opts.Shards.Count = shards
		opts.Sliding.Capacity, opts.Sliding.RetrainEvery = 50, 100
		if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), "retrain_every 100 exceeds sliding.capacity 50") {
			t.Errorf("shards %d: retrain_every 100 over capacity 50: %v", shards, err)
		}
		opts.Sliding.RetrainEvery = 50
		if err := opts.Validate(); err != nil {
			t.Errorf("shards %d: retrain_every equal to capacity refused: %v", shards, err)
		}
	}
}

func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"250ms"`), &d); err != nil || d.Std() != 250*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`2000000`), &d); err != nil || d.Std() != 2*time.Millisecond {
		t.Fatalf("nanosecond form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("garbage duration accepted")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Fatal("bool duration accepted")
	}
	b, err := json.Marshal(Duration(3 * time.Second))
	if err != nil || string(b) != `"3s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
}

// TestExampleConfigLoads keeps the shipped example config valid: it loads
// through LoadFile, which refuses any section or field Options lacks, and
// says what it sets.
func TestExampleConfigLoads(t *testing.T) {
	opts, err := LoadFile(filepath.Join("..", "..", "examples", "config", "qpredictd.json"))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Shards.Count != 4 || opts.State.Dir != "/var/lib/qpredictd" || opts.Sliding.Capacity != 500 {
		t.Fatalf("example config drifted: %+v", opts)
	}
}

// TestRoundTrip: Default marshals to JSON that loads back to itself — the
// documented way to produce a starting config file.
func TestRoundTrip(t *testing.T) {
	opts := Default()
	b, err := json.MarshalIndent(opts, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(writeConfig(t, string(b)))
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(loaded)
	ob, _ := json.Marshal(opts)
	if string(lb) != string(ob) {
		t.Fatalf("round trip drifted:\n%s\n%s", ob, lb)
	}
}
