package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Zoo-wide metrics. Per-kind relative-error histograms
// (model.challenger.<kind>.relerr) are resolved once per zoo at
// construction — the kinds are known up front — so /metrics only lists
// kinds actually running while the per-observation shadow-score path does
// no registry lookups or name concatenation. The champion histogram is
// role-based and shared by whichever kind currently serves.
var (
	shadowScores     = obs.GetCounter("model.shadow.scores")
	championPromoted = obs.GetCounter("model.champion.promotions")
	challengerTrains = obs.GetCounter("model.challenger.retrains")
	challengerFails  = obs.GetCounter("model.challenger.retrain.errors")
)

// ZooConfig enables champion/challenger operation on a shard: the champion
// kind serves traffic from the generation slot while every challenger is
// scored in shadow on each observation, and the promotion policy swaps the
// champion when a challenger dominates.
type ZooConfig struct {
	// Champion is the initial champion kind (default model.KindKCCA).
	Champion string
	// Challengers are the shadow kinds (the champion is scored implicitly;
	// listing it again is harmless and deduplicated).
	Challengers []string
	// Seeds are pre-trained models per kind. The champion's seed (when
	// present) becomes the boot model; a challenger's seed lets it score
	// from the first observation instead of waiting for the first retrain.
	Seeds map[string]model.Model
	// Policy is the promotion policy; zero fields take defaults.
	Policy model.PromotionPolicy
	// Opt parameterizes the KCCA trainer (the other kinds are
	// self-configuring).
	Opt core.Options
}

// normalize fills defaults and validates kind names.
func (z *ZooConfig) normalize() error {
	if z.Champion == "" {
		z.Champion = model.KindKCCA
	}
	seen := map[string]bool{z.Champion: true}
	kinds := []string{z.Champion}
	for _, k := range z.Challengers {
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	for _, k := range kinds {
		if _, err := model.NewTrainer(k, z.Opt); err != nil {
			return err
		}
	}
	z.Challengers = kinds[1:]
	return nil
}

// zoo is a shard's champion/challenger state. The observe goroutine is the
// only mutator (retrains, promotions); API handlers read concurrently
// through the mutex.
type zoo struct {
	mu       sync.RWMutex
	champion string
	models   map[string]model.Model
	trainers map[string]model.Trainer
	board    *model.Scoreboard
	// sinceGen is the slot generation at which the current champion took
	// over (boot generation until the first promotion).
	sinceGen atomic.Int64
	// relErr[kind] is the per-kind challenger-role shadow relative-error
	// histogram; champRelErr is the champion-role histogram. Both are
	// resolved once at construction and read-only after, so the
	// per-observation shadow-score path does no locking or registry lookups.
	relErr      map[string]*obs.Histogram
	champRelErr *obs.Histogram
}

// newZoo builds the zoo state; cfg must be normalized.
func newZoo(cfg *ZooConfig) *zoo {
	z := &zoo{
		champion:    cfg.Champion,
		models:      map[string]model.Model{},
		trainers:    map[string]model.Trainer{},
		board:       model.NewScoreboard(cfg.Policy),
		relErr:      map[string]*obs.Histogram{},
		champRelErr: obs.GetHistogram("model.champion.relerr"),
	}
	for _, kind := range append([]string{cfg.Champion}, cfg.Challengers...) {
		tr, _ := model.NewTrainer(kind, cfg.Opt) // validated by normalize
		z.trainers[kind] = tr
		z.relErr[kind] = obs.GetHistogram("model.challenger." + kind + ".relerr")
		if m := cfg.Seeds[kind]; m != nil {
			z.models[kind] = m
		}
	}
	return z
}

func (z *zoo) championKind() string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.champion
}

func (z *zoo) championModel() model.Model {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.models[z.champion]
}

func (z *zoo) modelFor(kind string) model.Model {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.models[kind]
}

func (z *zoo) setModel(kind string, m model.Model) {
	z.mu.Lock()
	z.models[kind] = m
	z.mu.Unlock()
}

func (z *zoo) setChampion(kind string) {
	z.mu.Lock()
	z.champion = kind
	z.mu.Unlock()
}

// hasChallengers reports whether any non-champion kind is registered.
func (z *zoo) hasChallengers() bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.trainers) > 1
}

// kinds returns every registered kind, champion first.
func (z *zoo) kinds() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.trainers))
	out = append(out, z.champion)
	for k := range z.trainers {
		if k != z.champion {
			out = append(out, k)
		}
	}
	return out
}

// histFor returns the shadow relative-error histogram for a kind under its
// current role. The maps are immutable after newZoo, so this is a lock-free
// read on the per-observation path.
func (z *zoo) histFor(kind string, isChampion bool) *obs.Histogram {
	if isChampion {
		return z.champRelErr
	}
	return z.relErr[kind]
}

// onRetrain refreshes every kind's model after a sliding retrain: the KCCA
// kind reuses the predictor that retrain published (never trained again
// here), every other kind refits from the window. A kind whose
// refit fails keeps its previous model serving shadow traffic.
func (z *zoo) onRetrain(cur *core.Predictor, window []*dataset.Query) {
	for _, kind := range z.kinds() {
		if kind == model.KindKCCA {
			if cur != nil {
				z.setModel(kind, model.WrapKCCA(cur))
			}
			continue
		}
		m, err := z.trainers[kind].Train(window)
		if err != nil {
			challengerFails.Inc()
			continue
		}
		z.setModel(kind, m)
		challengerTrains.Inc()
	}
}

// ZooStatus is a point-in-time snapshot of a shard's champion/challenger
// state for the API layer.
type ZooStatus struct {
	Champion   string
	Promotions int64
	// SinceGeneration is the slot generation at which the champion took
	// over.
	SinceGeneration int64
	// Scores carries per-kind, per-category shadow scores (champion
	// included).
	Scores []model.KindScore
}

// shadowScore scores the champion and every challenger on one executed
// query before the observation reaches any training window — strict
// train/test discipline: no model being scored has seen this query.
// Skipped entirely when the shard has no challengers, so a zoo-less shard
// pays nothing on the observe path.
func (s *Shard) shadowScore(q *dataset.Query) {
	z := s.zoo
	if z == nil || !z.hasChallengers() {
		return
	}
	cat := workload.Categorize(q.Metrics.ElapsedSec)
	champ := z.championKind()
	req := core.Request{Query: q}
	for _, kind := range z.kinds() {
		m := z.modelFor(kind)
		if m == nil {
			continue // not yet trained (no seed, no retrain yet)
		}
		res := m.Predict(req)
		if res[0].Err != nil || res[0].Prediction == nil {
			continue
		}
		pred := res[0].Prediction.Metrics.ElapsedSec
		act := q.Metrics.ElapsedSec
		z.board.Record(kind, cat, pred, act)
		z.histFor(kind, kind == champ).Observe(eval.RelativeError(pred, act))
		shadowScores.Inc()
	}
}

// maybePromote runs one promotion decision after an observation has been
// scored and applied. A promotion publishes the challenger's current model
// through the ordinary generation hot-swap (so in-flight predictions are
// untouched) and durably records the new champion kind.
func (s *Shard) maybePromote() {
	z := s.zoo
	if z == nil || !z.hasChallengers() {
		return
	}
	kind, ok := z.board.Tick(z.championKind())
	if !ok {
		return
	}
	m := z.modelFor(kind)
	if m == nil {
		return
	}
	z.setChampion(kind)
	z.sinceGen.Store(s.Publish(m))
	championPromoted.Inc()
	if s.store != nil {
		if err := s.store.SetChampion(kind); err != nil {
			snapshotFails.Inc()
		}
	}
}

// ChampionKind returns the kind currently serving this shard: the zoo's
// champion, or the slot model's kind for a zoo-less shard ("" while cold).
func (s *Shard) ChampionKind() string {
	if s.zoo != nil {
		return s.zoo.championKind()
	}
	if m := s.slot.Get(); m != nil {
		return m.Model.Kind()
	}
	return ""
}

// Zoo returns the shard's champion/challenger snapshot, or nil when the
// shard runs without a zoo.
func (s *Shard) Zoo() *ZooStatus {
	z := s.zoo
	if z == nil {
		return nil
	}
	return &ZooStatus{
		Champion:        z.championKind(),
		Promotions:      z.board.Promotions(),
		SinceGeneration: z.sinceGen.Load(),
		Scores:          z.board.Snapshot(),
	}
}

// buildZoo builds a shard's zoo from its config, resolving the boot model:
// an explicit champion seed wins, then a generic boot model of the champion
// kind. A boot model of a different registered kind (a recovered KCCA
// sliding model under a persisted non-KCCA champion, say) is kept as that
// kind's shadow model and boot resolution falls through to the caller's
// window-training path; an unregistered kind is a config error.
func buildZoo(sc *ShardConfig, boot model.Model) (*zoo, model.Model, error) {
	cfg := *sc.Zoo
	if err := cfg.normalize(); err != nil {
		return nil, nil, fmt.Errorf("shard: zoo config: %w", err)
	}
	z := newZoo(&cfg)
	if boot != nil && z.modelFor(boot.Kind()) == nil {
		if _, ok := z.trainers[boot.Kind()]; !ok {
			return nil, nil, fmt.Errorf("shard: boot model kind %q is neither the zoo champion %q nor a challenger",
				boot.Kind(), cfg.Champion)
		}
		z.setModel(boot.Kind(), boot)
	}
	return z, z.modelFor(cfg.Champion), nil
}
