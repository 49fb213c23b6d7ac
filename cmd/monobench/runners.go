package main

import (
	"context"
	"io"

	"repro/internal/figures"
)

// runner executes one experiment under ctx and setup and returns its
// printable sections.
type runner func(context.Context, figures.Setup) ([]printer, error)

// experiments maps names to runners. The figure-5 run also carries the
// figure-6 utilization data, and the figure-12 run carries figures 15 and
// 17; view selects which one a name prints.
var experiments = map[string]runner{
	"fig2":      one(figures.Fig02),
	"sort":      one(figures.Sort600GB),
	"fig5":      one(figures.Fig05),
	"fig6":      view(figures.Fig05, (*figures.Fig05Result).FprintFig6),
	"fig7":      one(figures.Fig07),
	"fig8":      one(figures.Fig08),
	"fig9":      one(figures.Fig09),
	"fig11":     one(figures.Fig11),
	"fig12":     one(figures.Fig12),
	"sec63":     one(figures.Sec63),
	"fig13":     one(figures.Fig13),
	"fig14":     one(figures.Fig14),
	"fig15":     view(figures.Fig12, (*figures.Fig12Result).FprintFig15),
	"fig16":     one(figures.Fig16),
	"fig17":     view(figures.Fig12, (*figures.Fig12Result).FprintFig17),
	"fig18":     one(figures.Fig18),
	"ablations": figAblations,
	"failure":   one(figures.Failure),
	"chaos": one(func(ctx context.Context, s figures.Setup) (*figures.ChaosResult, error) {
		return figures.Chaos(ctx, s, 24)
	}),
	"multijob": one(func(ctx context.Context, s figures.Setup) (*figures.MultijobResult, error) {
		return figures.Multijob(ctx, s, *smoke)
	}),
	"memory": one(func(ctx context.Context, s figures.Setup) (*figures.MemoryResult, error) {
		return figures.Memory(ctx, s, *smoke)
	}),
}

// one lifts a single-result experiment into a runner.
func one[T printer](f func(context.Context, figures.Setup) (T, error)) runner {
	return func(ctx context.Context, s figures.Setup) ([]printer, error) {
		r, err := f(ctx, s)
		if err != nil {
			return nil, err
		}
		return []printer{r}, nil
	}
}

// view runs an experiment and prints one of its alternate renderings.
func view[T any](f func(context.Context, figures.Setup) (T, error), render func(T, io.Writer)) runner {
	return func(ctx context.Context, s figures.Setup) ([]printer, error) {
		r, err := f(ctx, s)
		if err != nil {
			return nil, err
		}
		return []printer{printFunc(func(w io.Writer) { render(r, w) })}, nil
	}
}

// printFunc adapts a rendering function to the printer interface.
type printFunc func(io.Writer)

func (f printFunc) Fprint(w io.Writer) { f(w) }

func figAblations(ctx context.Context, s figures.Setup) ([]printer, error) {
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
