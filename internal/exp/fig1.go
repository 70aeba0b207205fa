package exp

import (
	"fmt"
	"slices"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// RunFig1Experiment (E12) exercises the paper's Figure 1 — the generic
// transformation of a mobile-agent protocol into a protocol for an
// anonymous processor network ("a message is an agent"). The Chang–Roberts
// ring election protocol is run on the Goroutine backend (agents walk the
// ring, one goroutine each) and on the Transformed backend ((program,
// memory) messages between processors); across sizes both worlds elect the
// maximum identity with identical per-agent outcomes and move counts.
func RunFig1Experiment(seed int64) (string, error) {
	var cells [][]string
	for _, n := range []int{3, 5, 8, 12, 16} {
		homes := make([]int, n)
		for i := range homes {
			homes[i] = i
		}
		cfg := runtime.Config{
			Graph:  graph.Cycle(n),
			Labels: elect.OrientedCycleLabeling(n),
			Homes:  homes,
			Seed:   seed,
		}
		p := runtime.ChangRoberts(1)
		mobile, err := runtime.Goroutine{}.Run(cfg, p)
		if err != nil {
			return "", fmt.Errorf("goroutine n=%d: %w", n, err)
		}
		transformed, err := runtime.Transformed{}.Run(cfg, p)
		if err != nil {
			return "", fmt.Errorf("transformed n=%d: %w", n, err)
		}
		leader := mobile.Leader()
		if !slices.Equal(mobile.Outcomes, transformed.Outcomes) ||
			!slices.Equal(mobile.Moves, transformed.Moves) || leader != n-1 {
			return "", fmt.Errorf("n=%d: equivalence broken (leader %d, outcomes %v vs %v, moves %v vs %v)",
				n, leader, mobile.Outcomes, transformed.Outcomes, mobile.Moves, transformed.Moves)
		}
		cells = append(cells, []string{
			fmt.Sprintf("C%d (r=%d)", n, n),
			fmt.Sprintf("agent %d (max id)", leader),
			fmt.Sprint(mobile.TotalMoves()), fmt.Sprint(transformed.TotalMoves()),
			"identical",
		})
	}
	out := Table(
		[]string{"ring", "elected", "goroutine moves", "message moves", "outcomes"},
		cells)
	out += "\nThe same agent program (Chang-Roberts) elects the same leader whether agents\nwalk or travel as messages — Figure 1's transformation, executed.\n"
	return out, nil
}
