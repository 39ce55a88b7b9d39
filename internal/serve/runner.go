package serve

import (
	"context"

	"repro/internal/exp"
)

// simRunner returns the production Runner: one fresh exp.Session per
// job (sessions memoize baselines internally, but the exact-result
// cache lives above the runner, so sharing sessions across jobs would
// only add lock contention for no extra hits), with the job's context
// as the session's cooperative cancellation. A run that stalls fails
// on its own: exp.System's watchdog and deadlock checks return an
// error. Each session runs its simulations one after another, so
// Options.Workers bounds the server's concurrent simulations, and
// sessions share the server's machine pool so consecutive jobs over
// one machine shape reuse built systems.
func simRunner(pool *exp.SystemPool) Runner {
	return func(ctx context.Context, spec *Job) ([]byte, error) {
		sess := exp.NewSession(spec.Cfg)
		sess.Ctx = ctx
		sess.Parallelism = 1
		sess.Pool = pool
		if len(spec.Benchmarks) > 0 {
			sess.Benchmarks = spec.Benchmarks
		}
		if len(spec.Mixes) > 0 {
			sess.Mixes = spec.Mixes
		}
		// Expose the session's live counters to SSE subscribers, with the
		// figure's estimated instruction horizon as the ETA denominator.
		// Horizons depend on the workload lists, so bind after setting them.
		var horizon uint64
		if spec.HasDesign {
			horizon = sess.DesignInstrHorizon(spec.Design, spec.Benchmarks)
		} else {
			horizon = sess.InstrHorizon(spec.Figure)
		}
		spec.Prog.Bind(sess, horizon)
		var fig *exp.Figure
		var err error
		if spec.HasDesign {
			fig, err = sess.DesignFigure(spec.Design, spec.Benchmarks)
		} else {
			fig, err = sess.Figure(spec.Figure)
		}
		if err != nil {
			return nil, err
		}
		spec.Trace.StampRun() // simulation over; what follows is rendering
		return []byte(fig.Render()), nil
	}
}
