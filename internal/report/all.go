package report

import "fmt"

// Generator regenerates one experiment artifact.
type Generator func(*Options) (Table, error)

// Generators maps experiment ids to their regenerators, covering every
// table and figure of the paper's evaluation section.
var Generators = map[string]Generator{
	"fig3":   fig3,
	"fig4":   fig4,
	"fig5":   fig5,
	"fig6":   fig6,
	"fig7":   fig7,
	"fig8":   fig8,
	"fig9":   fig9,
	"fig10":  fig10,
	"fig11":  fig11,
	"fig12":  fig12,
	"table2": table2,
	"fig13":  fig13,
	"fig14":  fig14,
}

// Order is the presentation order of the experiments.
var Order = []string{
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "table2", "fig13", "fig14",
}

// Generate regenerates one experiment by id.
func Generate(o *Options, id string) (Table, error) {
	g, ok := Generators[id]
	if !ok {
		return Table{}, fmt.Errorf("report: unknown experiment %q (have %v)", id, Order)
	}
	return g(o)
}

// All regenerates every experiment in presentation order.
func All(o *Options) ([]Table, error) {
	out := make([]Table, 0, len(Order))
	for _, id := range Order {
		t, err := Generate(o, id)
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
