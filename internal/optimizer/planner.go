package optimizer

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/catalog"
	"repro/internal/sqlgen"
)

// Config holds the planner knobs that depend on the target machine. The
// paper observes that plans for the 4-node system differ from plans for the
// 32-node system; these knobs are why our plans differ too.
type Config struct {
	// Processors is the number of CPUs the query may use.
	Processors int
	// BroadcastRows is the largest (estimated) inner cardinality for which
	// the planner replicates the inner side of a join to all processors
	// and uses a nested join instead of repartitioning both sides into a
	// hash join. Zero selects the default.
	BroadcastRows float64
	// JoinOrdering selects the join enumeration strategy.
	JoinOrdering JoinOrdering
}

// JoinOrdering selects how the planner orders joins.
type JoinOrdering int

const (
	// OrderGreedy is the default smallest-result-first heuristic.
	OrderGreedy JoinOrdering = iota
	// OrderDP enumerates left-deep orders with dynamic programming,
	// minimizing total estimated intermediate cardinality (capped at
	// maxDPRelations relations; larger queries fall back to greedy).
	OrderDP
)

// DefaultConfig returns planner settings for a machine with p processors.
func DefaultConfig(p int) Config {
	if p <= 0 {
		p = 4
	}
	return Config{Processors: p, BroadcastRows: 3000 * float64(p)}
}

func (c Config) broadcastRows() float64 {
	if c.BroadcastRows > 0 {
		return c.BroadcastRows
	}
	return 3000 * float64(c.Processors)
}

// Planner compiles queries into parallel physical plans against one schema,
// one data realization (the seed, see Estimator) and one machine
// configuration. It holds nothing that changes after NewPlanner, so one
// value serves any number of goroutines for the life of the process; a
// plan is a pure function of the query and the three things fixed here.
//
// Planning allocates what the plan keeps — the Plan, its table list and one
// slab of nodes per (sub)query — and nothing else: the working state of a
// call lives in its frame, indexed by FROM position. PlanIn carves the same
// three from an Arena instead.
type Planner struct {
	schema *catalog.Schema
	cfg    Config
	est    Estimator
}

// NewPlanner returns the planner for schema's data realization seed on the
// machine cfg describes.
func NewPlanner(schema *catalog.Schema, seed int64, cfg Config) *Planner {
	return &Planner{schema: schema, cfg: cfg, est: NewEstimator(schema, seed)}
}

// BuildPlan compiles one query with a planner made for the call. The
// returned plan carries both estimated and actual cardinalities on every
// node plus the optimizer's scalar cost estimate.
func BuildPlan(q *sqlgen.Query, schema *catalog.Schema, seed int64, cfg Config) (*Plan, error) {
	return NewPlanner(schema, seed, cfg).Plan(q)
}

// Plan compiles the query into a parallel physical plan.
func (pl *Planner) Plan(q *sqlgen.Query) (*Plan, error) {
	return pl.PlanIn(nil, q)
}

// Arena is storage for plans that a caller drops soon after planning: the
// Plan, its node slabs and its table list come from it, and Reset takes
// them back for the next plan. The zero Arena is ready to use. A nil *Arena
// allocates each plan exactly sized, as Plan does.
type Arena struct {
	plans  arena.Slab[Plan]
	nodes  arena.Slab[Node]
	tables arena.Slab[string]
}

// PlanIn is Plan with the plan carved from a: it stays valid until the
// next Reset. Once the arena has grown to the statements it sees, planning
// allocates nothing.
func (pl *Planner) PlanIn(a *Arena, q *sqlgen.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	root, tables, err := pl.tree(a, q, true)
	if err != nil {
		return nil, err
	}
	var plans *arena.Slab[Plan]
	if a != nil {
		plans = &a.plans
	}
	plan := &plans.Take(1)[0]
	*plan = Plan{Root: root, Tables: tables, Cost: ScalarCost(root)}
	return plan, nil
}

// nodeSlab and tableSlab are where a plan's nodes and table list come
// from: nil, for exactly sized allocations, when a is.
func (a *Arena) nodeSlab() *arena.Slab[Node] {
	if a == nil {
		return nil
	}
	return &a.nodes
}

func (a *Arena) tableSlab() *arena.Slab[string] {
	if a == nil {
		return nil
	}
	return &a.tables
}

// poisonTable is what a reset arena's table names read.
const poisonTable = "\x00released"

// Reset takes back every plan carved from the arena since the last Reset,
// poisoning its storage: nothing planned in it may be read afterwards.
func (a *Arena) Reset() {
	nan := math.NaN()
	a.plans.Reset(Plan{Cost: nan})
	a.nodes.Reset(Node{Op: -1, Table: poisonTable, EstRowsIn: nan, ActRowsIn: nan, EstRows: nan, ActRows: nan, Width: -1})
	a.tables.Reset(poisonTable)
}

// Bytes reports the storage the arena keeps between plans.
func (a *Arena) Bytes() int { return a.plans.Bytes() + a.nodes.Bytes() + a.tables.Bytes() }

// maxFromEntries is the most FROM entries one SELECT may list: relation
// sets are bitmasks during join ordering.
const maxFromEntries = 64

// fromEntry is what the planner knows about one FROM position.
type fromEntry struct {
	name  string // alias, or the table name
	table *catalog.Table
	width int
	sel   scanSel // predicates pushed down to the scan
	// in and scan are the scan's input and output; out is the output of the
	// entry's topmost node — the scan, or the last semi-join stacked on it —
	// after any self-comparison filters.
	in, scan, out Card
	semis         int
}

// semiJoin is an IN-subquery predicate planned as a semi-join above the
// scan (or earlier semi-join) of the FROM entry owning its column.
type semiJoin struct {
	from    int
	sub     *Node
	in, out Card
}

// edge is a join-graph edge: the unordered pair of FROM positions some join
// predicates connect. Edges are kept in the order their first predicate
// appears in the query, and that order — never a map's — breaks ties when
// several edges could join the same two relations.
type edge struct{ a, b int }

// resolvedJoin is a join predicate with the base tables of its two sides,
// so cardinality estimation finds column statistics whatever the aliasing,
// and the edge it belongs to.
type resolvedJoin struct {
	pred   *sqlgen.JoinPred
	lt, rt *catalog.Table
	edge   int
}

// rel is an operand of join ordering: one FROM entry with its semi-joins,
// or the join of two rels. It carries what ordering decisions read (which
// FROM positions it covers, cardinalities, width) and what is needed to
// build its nodes afterwards, so that candidate joins cost no nodes.
type rel struct {
	mask  uint64
	card  Card
	width int
	nodes int // nodes in the built subtree
	// left < 0 marks a FROM entry, whose position is right; otherwise left
	// and right index the joined rels.
	left, right int
	equi, hash  bool    // all predicates are equalities; repartitioned hash join
	cost        float64 // accumulated intermediate cardinality (DP only)
}

// resolve finds the FROM position a column reference belongs to: the entry
// named by its qualifier, or for a bare column the first entry in FROM
// order whose table has it.
func resolve(from []fromEntry, c sqlgen.ColumnRef) (int, error) {
	if c.Table != "" {
		for i := range from {
			if from[i].name == c.Table {
				return i, nil
			}
		}
		return 0, fmt.Errorf("optimizer: column %s references unknown FROM name", c)
	}
	for i := range from {
		if from[i].table.Column(c.Column) != nil {
			return i, nil
		}
	}
	return 0, fmt.Errorf("optimizer: cannot resolve column %q", c.Column)
}

// tree plans q and builds its nodes. The top-level statement (top) also
// gets the coordinator exchange, the root and the table list; a subquery is
// returned bare, to be embedded under a semi-join.
func (pl *Planner) tree(a *Arena, q *sqlgen.Query, top bool) (*Node, []string, error) {
	if len(q.From) > maxFromEntries {
		return nil, nil, fmt.Errorf("optimizer: %d FROM entries, at most %d are supported", len(q.From), maxFromEntries)
	}
	var fromBuf [8]fromEntry
	from := fromBuf[:0]
	for _, t := range q.From {
		table := pl.schema.Table(t.Table)
		if table == nil {
			return nil, nil, fmt.Errorf("optimizer: unknown table %q", t.Table)
		}
		from = append(from, fromEntry{name: t.Name(), table: table, width: table.RowWidth(), sel: noPredicates})
	}

	// Resolve output and ordering columns so unknown columns are rejected.
	for _, it := range q.Select {
		if it.Agg == sqlgen.AggCountStar {
			continue
		}
		if _, err := resolve(from, it.Col); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range q.OrderBy {
		if _, err := resolve(from, o.Col); err != nil {
			return nil, nil, err
		}
	}

	// Push WHERE predicates down to their scans; subquery predicates are
	// planned as semi-joins further down.
	for i := range q.Where {
		pred := &q.Where[i]
		if pred.Exists {
			continue
		}
		pos, err := resolve(from, pred.Col)
		if err != nil {
			return nil, nil, err
		}
		if pred.Subquery == nil {
			from[pos].sel.and(pl.est.predSelectivity(from[pos].table, pred))
		}
	}
	for i := range from {
		f := &from[i]
		f.in, f.scan = f.sel.scanCards(f.table)
		f.out = f.scan
	}

	// IN-subquery predicates become semi-joins above the owning scan.
	var semiBuf [4]semiJoin
	semis := semiBuf[:0]
	for i := range q.Where {
		pred := &q.Where[i]
		if pred.Exists || pred.Subquery == nil {
			continue
		}
		sub, _, err := pl.tree(a, pred.Subquery, false)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: subquery: %w", err)
		}
		pos, _ := resolve(from, pred.Col) // resolved once above: cannot fail
		f := &from[pos]
		subCard := Card{Est: sub.EstRows, Act: sub.ActRows}
		s := semiJoin{
			from: pos, sub: sub,
			in:  Card{Est: f.out.Est + sub.EstRows, Act: f.out.Act + sub.ActRows},
			out: pl.est.SemiJoinCards(f.table, pred.Col.Column, f.out, subCard),
		}
		semis = append(semis, s)
		f.out = s.out
		f.semis++
	}

	// Group join predicates into edges; a comparison within one FROM entry
	// is a filter on it.
	var (
		edgeBuf [8]edge
		joinBuf [8]resolvedJoin
	)
	edges, joins := edgeBuf[:0], joinBuf[:0]
	for i := range q.Joins {
		j := &q.Joins[i]
		a, err := resolve(from, j.Left)
		if err != nil {
			return nil, nil, err
		}
		b, err := resolve(from, j.Right)
		if err != nil {
			return nil, nil, err
		}
		if a == b {
			from[a].out = pl.est.SelfCompareCards(from[a].table, j.Left.Column, from[a].out)
			continue
		}
		e := 0
		for e < len(edges) && !(edges[e] == edge{a, b} || edges[e] == edge{b, a}) {
			e++
		}
		if e == len(edges) {
			edges = append(edges, edge{a, b})
		}
		joins = append(joins, resolvedJoin{pred: j, lt: from[a].table, rt: from[b].table, edge: e})
	}

	// Join ordering: enumerate a left-deep join order, minimizing total
	// estimated intermediate cardinality. The default is the greedy
	// heuristic (commercial heuristic planners of the period behaved this
	// way); exhaustive Selinger-style dynamic programming is available via
	// Config.JoinOrdering for small join graphs.
	var relBuf [16]rel
	rels := relBuf[:0]
	for i := range from {
		f := &from[i]
		rels = append(rels, rel{mask: 1 << uint(i), card: f.out, width: f.width, nodes: 1 + 3*f.semis, left: -1, right: i})
	}
	g := joinGraph{pl: pl, edges: edges, joins: joins}
	var joined int
	if pl.cfg.JoinOrdering == OrderDP && len(from) <= maxDPRelations {
		rels, joined = g.orderDP(rels)
	} else {
		rels, joined = g.orderGreedy(rels)
	}

	// Uncorrelated EXISTS subqueries: evaluated once, filtering nothing in
	// expectation but contributing their subplan's work.
	var existsBuf [4]*Node
	exists := existsBuf[:0]
	for i := range q.Where {
		if !q.Where[i].Exists {
			continue
		}
		sub, _, err := pl.tree(a, q.Where[i].Subquery, false)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: EXISTS subquery: %w", err)
		}
		exists = append(exists, sub)
	}

	var groupBuf [8]*catalog.Column
	groupCols := groupBuf[:0]
	for _, c := range q.GroupBy {
		pos, err := resolve(from, c)
		if err != nil {
			return nil, nil, err
		}
		groupCols = append(groupCols, from[pos].table.Column(c.Column))
	}

	// Everything that decides the plan's shape is known: size the slab to
	// the node count and build.
	count := rels[joined].nodes + 3*len(exists)
	switch {
	case len(q.GroupBy) > 0:
		count += 3
	case q.HasAggregate():
		count++
	}
	if len(q.OrderBy) > 0 {
		count++
	}
	if q.Limit > 0 {
		count++
	}
	if top {
		count += 2
	}
	b := builder{slab: a.nodeSlab().Take(count)[:0]}
	tree := b.rel(&ordered{from: from, semis: semis, rels: rels}, joined)

	for _, sub := range exists {
		outer := tree
		tree = b.node(OpSemiJoin)
		tree.EstRowsIn, tree.ActRowsIn = outer.EstRows+sub.EstRows, outer.ActRows+sub.ActRows
		tree.EstRows, tree.ActRows = outer.EstRows, outer.ActRows
		tree.Width = outer.Width
		tree.setChildren(outer, b.repartition(sub, false))
	}

	// Aggregation.
	if len(q.GroupBy) > 0 {
		out := pl.est.GroupCards(GroupNDV(groupCols), Card{Est: tree.EstRows, Act: tree.ActRows})
		// Parallel aggregation repartitions its input by the grouping key.
		tree = b.above(OpHashGroupBy, b.repartition(tree, false))
		tree.EstRows, tree.ActRows = out.Est, out.Act
		tree.Width = 16*len(q.GroupBy) + 8*len(q.Select)
		tree.GroupCols = len(q.GroupBy)
	} else if q.HasAggregate() {
		tree = b.above(OpScalarAgg, tree)
		tree.EstRows, tree.ActRows = 1, 1
		tree.Width = 8 * len(q.Select)
	}

	// Ordering and limit.
	if len(q.OrderBy) > 0 {
		tree = b.above(OpSort, tree)
		tree.SortCols = len(q.OrderBy)
	}
	if q.Limit > 0 {
		lim := float64(q.Limit)
		tree = b.above(OpTopN, tree)
		tree.EstRows, tree.ActRows = math.Min(lim, tree.EstRows), math.Min(lim, tree.ActRows)
		tree.SortCols = len(q.OrderBy)
	}
	if !top {
		b.done()
		return tree, nil, nil
	}

	// Merge results to the coordinator.
	root := b.above(OpRoot, b.above(OpExchange, tree))
	b.done()

	// Base tables in plan order: the FROM list, then each subquery's scans.
	nTables := len(from)
	for i := range semis {
		nTables += countScans(semis[i].sub)
	}
	for _, sub := range exists {
		nTables += countScans(sub)
	}
	tables := a.tableSlab().Take(nTables)[:0]
	for i := range from {
		tables = append(tables, from[i].table.Name)
	}
	for i := range semis {
		tables = appendScanTables(tables, semis[i].sub)
	}
	for _, sub := range exists {
		tables = appendScanTables(tables, sub)
	}
	return root, tables, nil
}

// builder carves a plan's nodes out of one slab sized in advance.
type builder struct{ slab []Node }

// ordered is what join ordering leaves for the builder to materialize. It
// is kept apart from the builder so that the planner's working state, which
// lives in tree's frame, never shares a struct with a pointer into the
// heap-allocated slab (escape analysis would move all of it to the heap).
type ordered struct {
	from  []fromEntry
	semis []semiJoin
	rels  []rel
}

func (b *builder) node(op OpType) *Node {
	b.slab = b.slab[:len(b.slab)+1]
	n := &b.slab[len(b.slab)-1]
	n.Op = op
	return n
}

// done checks that the plan used exactly the nodes counted for it.
func (b *builder) done() {
	if len(b.slab) != cap(b.slab) {
		panic(fmt.Sprintf("optimizer: built %d nodes, counted %d", len(b.slab), cap(b.slab)))
	}
}

// above adds a one-child operator that passes its input through: row
// counts and width are the child's until the caller says otherwise.
func (b *builder) above(op OpType, child *Node) *Node {
	n := b.node(op)
	n.EstRowsIn, n.ActRowsIn = child.EstRows, child.ActRows
	n.EstRows, n.ActRows = child.EstRows, child.ActRows
	n.Width = child.Width
	n.setChildren(child, nil)
	return n
}

// repartition wraps child in split(partitioning(child)) — the operators
// that move rows between processors. Broadcast partitions replicate every
// row to all processors.
func (b *builder) repartition(child *Node, broadcast bool) *Node {
	part := b.above(OpPartition, child)
	part.Broadcast = broadcast
	return b.above(OpSplit, part)
}

// rel builds the subtree of one join-ordering operand.
func (b *builder) rel(o *ordered, i int) *Node {
	r := &o.rels[i]
	if r.left < 0 {
		return b.entry(o, r.right)
	}
	// Keep the smaller (estimated) side as the inner/build side.
	outer, inner := b.rel(o, r.left), b.rel(o, r.right)
	if outer.EstRows < inner.EstRows {
		outer, inner = inner, outer
	}
	var join *Node
	if r.hash {
		// Repartition both sides on the join key and hash join.
		join = b.node(OpHashJoin)
		join.setChildren(b.repartition(outer, false), b.repartition(inner, false))
	} else {
		// Broadcast the inner side and run a nested join. For equijoins
		// this is the small-inner broadcast strategy; for inequality joins
		// and cross products it is the only option.
		join = b.node(OpNestedJoin)
		join.Pairwise = !r.equi
		join.setChildren(outer, b.repartition(inner, true))
	}
	join.EstRowsIn = outer.EstRows + inner.EstRows
	join.ActRowsIn = outer.ActRows + inner.ActRows
	join.EstRows, join.ActRows = r.card.Est, r.card.Act
	join.Width = outer.Width + inner.Width
	return join
}

// entry builds one FROM entry: its scan and the semi-joins stacked on it.
func (b *builder) entry(o *ordered, pos int) *Node {
	f := &o.from[pos]
	n := b.node(OpFileScan)
	n.Table = f.table.Name
	n.EstRowsIn, n.ActRowsIn = f.in.Est, f.in.Act
	n.EstRows, n.ActRows = f.scan.Est, f.scan.Act
	n.Width = f.width
	for i := range o.semis {
		s := &o.semis[i]
		if s.from != pos {
			continue
		}
		outer := n
		n = b.node(OpSemiJoin)
		n.EstRowsIn, n.ActRowsIn = s.in.Est, s.in.Act
		n.EstRows, n.ActRows = s.out.Est, s.out.Act
		n.Width = outer.Width
		n.setChildren(outer, b.repartition(s.sub, false))
	}
	n.EstRows, n.ActRows = f.out.Est, f.out.Act
	return n
}

func countScans(n *Node) int {
	if n.Op == OpFileScan {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += countScans(c)
	}
	return total
}

func appendScanTables(dst []string, n *Node) []string {
	if n.Op == OpFileScan {
		return append(dst, n.Table)
	}
	for _, c := range n.Children {
		dst = appendScanTables(dst, c)
	}
	return dst
}

// maxDPRelations bounds the dynamic-programming join enumerator (2^n
// subsets); larger FROM lists fall back to the greedy heuristic.
const maxDPRelations = 12

// joinGraph is the read-only input of join ordering.
type joinGraph struct {
	pl    *Planner
	edges []edge
	joins []resolvedJoin
}

// findEdge returns the first edge, in the order edges were first seen, that
// connects relation sets l and r, or -1.
func (g *joinGraph) findEdge(l, r uint64) int {
	for i, e := range g.edges {
		a, b := uint64(1)<<uint(e.a), uint64(1)<<uint(e.b)
		if (l&a != 0 && r&b != 0) || (l&b != 0 && r&a != 0) {
			return i
		}
	}
	return -1
}

// join computes the rel joining rels[li] and rels[ri] over the edge that
// connects them (a cross product when none does) and its ordering score:
// estimated output rows, with cross products heavily penalized.
func (g *joinGraph) join(rels []rel, li, ri int) (rel, float64) {
	l, r := &rels[li], &rels[ri]
	out := rel{mask: l.mask | r.mask, width: l.width + r.width, left: li, right: ri}
	var score float64
	if e := g.findEdge(l.mask, r.mask); e >= 0 {
		out.equi = true
		first := true
		for i := range g.joins {
			j := &g.joins[i]
			if j.edge != e {
				continue
			}
			if first {
				out.card = g.pl.est.JoinCards(j.pred, j.lt, j.rt, l.card, r.card)
				first = false
			} else {
				// Additional predicates between the same pair act as filters.
				extra := g.pl.est.JoinCards(j.pred, j.lt, j.rt, out.card, Card{Est: 1, Act: 1})
				out.card = Card{Est: floorOne(extra.Est), Act: floorOne(extra.Act)}
			}
			if j.pred.Op != sqlgen.OpEq {
				out.equi = false
			}
		}
		score = out.card.Est
	} else {
		// A cross product runs as a nested join.
		out.card = Card{Est: l.card.Est * r.card.Est, Act: l.card.Act * r.card.Act}
		score = out.card.Est * 1e6
	}
	// The smaller (estimated) side is the inner side; an equijoin whose
	// inner side is too big to broadcast repartitions both sides.
	inner := math.Min(l.card.Est, r.card.Est)
	out.hash = out.equi && inner > g.pl.cfg.broadcastRows()
	out.nodes = l.nodes + r.nodes + 3
	if out.hash {
		out.nodes += 2
	}
	return out, score
}

// orderGreedy builds a left-deep order starting from the smallest estimated
// relation, repeatedly joining the candidate with the smallest estimated
// result. It appends the joins to rels and returns the index of the last.
func (g *joinGraph) orderGreedy(rels []rel) ([]rel, int) {
	// Stable insertion sort by estimated rows: ties stay in FROM order.
	var orderBuf [maxFromEntries]int
	order := orderBuf[:len(rels)]
	for i := range order {
		order[i] = i
		for k := i; k > 0 && rels[order[k]].card.Est < rels[order[k-1]].card.Est; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	current, remaining := order[0], order[1:]
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, math.Inf(1)
		var best rel
		for i, cand := range remaining {
			joined, score := g.join(rels, current, cand)
			if score < bestScore || bestIdx < 0 {
				bestIdx, bestScore, best = i, score, joined
			}
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		rels = append(rels, best)
		current = len(rels) - 1
	}
	return rels, current
}

// orderDP enumerates left-deep join orders over subsets of the relations
// (Selinger-style dynamic programming), minimizing the accumulated
// estimated intermediate cardinality. It returns the table of best rels
// indexed by relation set and the index of the full set.
func (g *joinGraph) orderDP(rels []rel) ([]rel, int) {
	n := len(rels)
	if n == 1 {
		return rels, 0
	}
	best := make([]rel, 1<<uint(n))
	for i := range rels {
		best[1<<uint(i)] = rels[i] // a FROM entry's mask is its index here
	}
	full := 1<<uint(n) - 1
	for mask := 1; mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue // singletons seeded above
		}
		found := false
		for i := 0; i < n; i++ {
			bit := 1 << uint(i)
			if mask&bit == 0 {
				continue
			}
			rest := mask &^ bit
			joined, score := g.join(best, rest, bit)
			joined.cost = best[rest].cost + score
			if !found || joined.cost < best[mask].cost {
				best[mask] = joined
				found = true
			}
		}
	}
	return best, full
}
