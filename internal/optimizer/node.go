package optimizer

import (
	"fmt"
	"strings"
)

// Node is one physical plan operator. Cardinalities come in pairs: Est*
// fields hold the optimizer's estimates (uniformity + independence + stale
// statistics), Act* fields hold the true values from the full statistical
// model. Downstream consumers choose: the plan feature vector and the
// optimizer cost read estimates; the execution simulator reads actuals.
type Node struct {
	Op    OpType
	Table string // table name for OpFileScan

	// EstRowsIn/ActRowsIn are input cardinalities (for scans: rows
	// scanned; for joins: sum of child outputs).
	EstRowsIn, ActRowsIn float64
	// EstRows/ActRows are output cardinalities.
	EstRows, ActRows float64
	// Width is the output row width in bytes.
	Width int
	// Broadcast marks a partition operator that replicates its input to
	// every processor instead of hash-splitting it.
	Broadcast bool
	// Pairwise marks a nested join that must compare every outer row with
	// every inner row (inequality joins and cross products), as opposed to
	// the keyed probe of a broadcast equijoin.
	Pairwise bool
	// SortCols/GroupCols count the sort or grouping columns for OpSort,
	// OpTopN and OpHashGroupBy.
	SortCols, GroupCols int

	Children []*Node
	// kids is where the planner keeps Children (no operator has more than
	// two), so a node and its child list are one object.
	kids [2]*Node
}

// setChildren makes a, and b unless nil, the node's children.
func (n *Node) setChildren(a, b *Node) {
	n.kids = [2]*Node{a, b}
	n.Children = n.kids[:1]
	if b != nil {
		n.Children = n.kids[:2]
	}
}

// Plan is a complete physical plan for one query.
type Plan struct {
	Root *Node
	// Cost is the optimizer's scalar cost estimate in internal optimizer
	// units (deliberately not time units, as in commercial optimizers).
	Cost float64
	// Tables lists the base tables scanned, in plan order.
	Tables []string
}

// Walk visits every node in the subtree in depth-first pre-order.
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// CountOps returns the number of operators of each type in the subtree.
func (n *Node) CountOps() [NumOpTypes]int {
	var counts [NumOpTypes]int
	n.Walk(func(m *Node) { counts[m.Op]++ })
	return counts
}

// Scans returns all file-scan nodes in the subtree, in plan order.
func (n *Node) Scans() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Op == OpFileScan {
			out = append(out, m)
		}
	})
	return out
}

// String renders an indented plan tree with estimated and actual
// cardinalities, in the style of an EXPLAIN listing.
func (n *Node) String() string {
	var sb strings.Builder
	n.format(&sb, 0)
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op.String())
	if n.Table != "" {
		fmt.Fprintf(sb, " [%s]", n.Table)
	}
	if n.Broadcast {
		sb.WriteString(" (broadcast)")
	}
	fmt.Fprintf(sb, "  est=%.0f act=%.0f", n.EstRows, n.ActRows)
	sb.WriteByte('\n')
	for _, c := range n.Children {
		c.format(sb, depth+1)
	}
}

// Validate checks structural plan invariants: operator arity, nonnegative
// cardinalities, and scans having tables.
func (p *Plan) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("optimizer: plan has no root")
	}
	if p.Root.Op != OpRoot {
		return fmt.Errorf("optimizer: top operator is %s, want root", p.Root.Op)
	}
	var err error
	p.Root.Walk(func(n *Node) {
		if err != nil {
			return
		}
		switch n.Op {
		case OpFileScan:
			if n.Table == "" {
				err = fmt.Errorf("optimizer: file_scan with no table")
			}
			if len(n.Children) != 0 {
				err = fmt.Errorf("optimizer: file_scan with children")
			}
		case OpNestedJoin, OpHashJoin, OpSemiJoin:
			if len(n.Children) != 2 {
				err = fmt.Errorf("optimizer: %s has %d children, want 2", n.Op, len(n.Children))
			}
		default:
			if len(n.Children) != 1 {
				err = fmt.Errorf("optimizer: %s has %d children, want 1", n.Op, len(n.Children))
			}
		}
		if n.EstRows < 0 || n.ActRows < 0 || n.EstRowsIn < 0 || n.ActRowsIn < 0 {
			err = fmt.Errorf("optimizer: %s has negative cardinality", n.Op)
		}
		if n.Width <= 0 {
			err = fmt.Errorf("optimizer: %s has nonpositive width", n.Op)
		}
	})
	return err
}
