package experiments

import (
	"fmt"

	"gigaflow/internal/stats"
)

// IDs lists every experiment in the order the paper presents them: what
// `gigabench -list` prints, `gigabench -exp all` runs and the golden test
// renders.
var IDs = []string{
	"tab1", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "tab2", "fig16", "fig17", "fig18",
	"sec636", "fig19",
}

// Runner renders experiments by id at one scale. The §6.2 grid behind
// fig8–fig13 and tab2, and the table sweep behind fig14 and fig15, run
// once and are shared by the ids that render them.
type Runner struct {
	Params Params

	e2e   *EndToEnd
	sweep *TableSweep
}

// Run executes one experiment and returns the tables it reports.
func (r *Runner) Run(id string) ([]*stats.Table, error) {
	one := func(t *stats.Table, err error) ([]*stats.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
	switch id {
	case "tab1":
		return one(Table1(), nil)
	case "fig3":
		return one(Fig3(r.Params))
	case "fig4":
		return one(Fig4(r.Params), nil)
	case "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "tab2":
		if r.e2e == nil {
			e, err := RunEndToEnd(r.Params)
			if err != nil {
				return nil, err
			}
			r.e2e = e
		}
		render := map[string]func() *stats.Table{
			"fig8": r.e2e.Fig8, "fig9": r.e2e.Fig9, "fig10": r.e2e.Fig10, "fig11": r.e2e.Fig11,
			"fig12": r.e2e.Fig12, "fig13": r.e2e.Fig13, "tab2": r.e2e.Table2,
		}
		return one(render[id](), nil)
	case "fig14", "fig15":
		if r.sweep == nil {
			s, err := RunTableSweep(r.Params)
			if err != nil {
				return nil, err
			}
			r.sweep = s
		}
		if id == "fig14" {
			return one(r.sweep.Fig14(), nil)
		}
		return one(r.sweep.Fig15(), nil)
	case "fig16":
		return one(Fig16(r.Params))
	case "fig17":
		return one(Fig17(r.Params))
	case "fig18":
		res, err := Fig18(r.Params)
		if err != nil {
			return nil, err
		}
		return one(res.Table(), nil)
	case "sec636":
		lat, reval, err := Sec636(r.Params)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{lat, reval}, nil
	case "fig19":
		return one(Fig19(r.Params))
	}
	return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
}
