package main

import (
	"context"
	"io"

	"repro/internal/figures"
)

// runner executes one experiment under ctx and setup, at CI size when smoke
// is set and the experiment has such a size, and returns its printable
// sections.
type runner func(ctx context.Context, setup figures.Setup, smoke bool) ([]printer, error)

// experiment is one name monobench accepts.
type experiment struct {
	name string
	run  runner
}

// experiments lists every experiment in paper order, the order `monobench
// all` runs them in. The figure-5 run also carries the figure-6 utilization
// data, and the figure-12 run carries figures 15 and 17; view selects which
// one a name prints and judges.
var experiments = []experiment{
	{"fig2", one(figures.Fig02)},
	{"sort", one(figures.Sort600GB)},
	{"fig5", one(figures.Fig05)},
	{"fig6", view(figures.Fig05, (*figures.Fig05Result).FprintFig6, (*figures.Fig05Result).VerifyFig6)},
	{"fig7", one(figures.Fig07)},
	{"fig8", one(figures.Fig08)},
	{"fig9", one(figures.Fig09)},
	{"fig11", one(figures.Fig11)},
	{"fig12", one(figures.Fig12)},
	{"sec63", one(figures.Sec63)},
	{"fig13", one(figures.Fig13)},
	{"fig14", one(figures.Fig14)},
	{"fig15", view(figures.Fig12, (*figures.Fig12Result).FprintFig15, (*figures.Fig12Result).VerifyFig15)},
	{"fig16", one(figures.Fig16)},
	{"fig17", view(figures.Fig12, (*figures.Fig12Result).FprintFig17, (*figures.Fig12Result).VerifyFig17)},
	{"fig18", one(figures.Fig18)},
	{"ablations", figAblations},
	{"failure", one(figures.Failure)},
	{"chaos", func(ctx context.Context, s figures.Setup, _ bool) ([]printer, error) {
		return section(figures.Chaos(ctx, s, 24))
	}},
	{"multijob", func(ctx context.Context, s figures.Setup, smoke bool) ([]printer, error) {
		return section(figures.Multijob(ctx, s, smoke))
	}},
	{"memory", func(ctx context.Context, s figures.Setup, smoke bool) ([]printer, error) {
		return section(figures.Memory(ctx, s, smoke))
	}},
}

// one lifts a single-result experiment into a runner.
func one[T printer](f func(context.Context, figures.Setup) (T, error)) runner {
	return func(ctx context.Context, s figures.Setup, _ bool) ([]printer, error) {
		return section(f(ctx, s))
	}
}

// section wraps one experiment result as its only printed section.
func section[T printer](r T, err error) ([]printer, error) {
	if err != nil {
		return nil, err
	}
	return []printer{r}, nil
}

// view runs an experiment and prints and judges one of its alternate
// renderings.
func view[T any](f func(context.Context, figures.Setup) (T, error), render func(T, io.Writer), judge func(T) error) runner {
	return func(ctx context.Context, s figures.Setup, _ bool) ([]printer, error) {
		r, err := f(ctx, s)
		if err != nil {
			return nil, err
		}
		return []printer{rendering{
			print:  func(w io.Writer) { render(r, w) },
			verify: func() error { return judge(r) },
		}}, nil
	}
}

// rendering is an alternate view of a result, with its verdict.
type rendering struct {
	print  func(io.Writer)
	verify func() error
}

func (r rendering) Fprint(w io.Writer) { r.print(w) }
func (r rendering) Verify() error      { return r.verify() }

func figAblations(ctx context.Context, s figures.Setup, _ bool) ([]printer, error) {
	var out []printer
	for _, f := range []func(context.Context, figures.Setup) (*figures.AblationResult, error){
		figures.AblationPhaseRR,
		figures.AblationSpareMultitask,
		figures.AblationNetLimit,
		figures.AblationSSDConcurrency,
		figures.AblationLoadAwareWrites,
		figures.AblationNetworkPolicy,
	} {
		r, err := f(ctx, s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
