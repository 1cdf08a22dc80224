package rocketeer

import (
	"errors"
	"fmt"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/push"
	"godiva/internal/remote"
)

// FollowConfig configures a live follower: a long-running Voyager that
// subscribes to a push-enabled godivad server and renders time steps as
// their snapshot files are ingested, instead of batch-processing a finished
// dataset.
type FollowConfig struct {
	Test   VisTest
	Client *remote.Client

	// Policy and Queue shape the subscription (see push.Options). A visual
	// follower wants DropOldest: falling behind skips to fresh steps.
	Policy push.Policy
	Queue  int

	// MaxSteps stops after rendering this many steps (0 = run until the
	// stream ends).
	MaxSteps int

	// MemoryLimit bounds the GODIVA database (0 = Config default).
	MemoryLimit int64
	// ImageDir receives one PNG per pass per rendered step ("" = none).
	ImageDir      string
	Width, Height int

	// Logf, when non-nil, receives one line per rendered or skipped step.
	Logf func(format string, args ...any)
}

// FollowResult summarizes a follower run.
type FollowResult struct {
	Steps   int // time steps rendered
	Skipped int // steps discarded incomplete (lag shed by drop-oldest)
	Images  int
	Events  int // subscription events received
	DB      core.Stats
}

// followStep tracks one time step assembling from per-file events.
type followStep struct {
	stepID string
	files  map[int]bool
}

// Follow subscribes to the server's event stream and renders each time step
// once all of its files have landed. Every event immediately becomes a
// GODIVA unit (one per snapshot file), so the core FIFO prefetches file
// payloads in the background while earlier steps are still rendering — the
// push-plane mirror of the paper's pull-mode prefetch. A step whose events
// were dropped (drop-oldest lag) is discarded when a newer step completes.
// Follow returns when MaxSteps is reached, the subscription is closed
// locally, or the stream ends (server shutdown ends a follow without error
// once at least one event arrived; a stream lost before any event is
// reported).
func Follow(cfg FollowConfig) (*FollowResult, error) {
	vars := orderedVars(cfg.Test.Vars)
	db := core.Open(core.Options{
		MemoryLimit:  cfg.MemoryLimit,
		BackgroundIO: true,
	})
	defer db.Close()
	if err := defineSchema(db); err != nil {
		return nil, err
	}
	readFn := remote.NewReadFunc(cfg.Client, func(unit string) ([]string, error) {
		return unitPaths(genx.Spec{}, "", unit)
	}, vars, blockCommitter(cfg.Test, false))

	sub, err := cfg.Client.Subscribe(push.Spec{ToStep: -1}, push.Options{
		Policy: cfg.Policy,
		Queue:  cfg.Queue,
	})
	if err != nil {
		return nil, err
	}
	defer sub.Close()

	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &FollowResult{}
	p := (&Config{
		Test:     cfg.Test,
		ImageDir: cfg.ImageDir,
		Width:    cfg.Width,
		Height:   cfg.Height,
	}).newPipeline()
	// Per-snapshot shape learned from the stream itself, so a follower of an
	// initially empty ingest server needs no a-priori spec. filesPerStep is
	// only a lower bound (max file index seen + 1) until confirmed: an event
	// from a later step proves the earlier step received its full width.
	filesPerStep := 0
	confirmed := false
	maxBlocks := 0
	pending := make(map[int]*followStep)

	// renderReady renders, in ascending step order, every pending step that
	// has all filesPerStep files, shedding older incomplete steps (their
	// remaining events were dropped or the stream skipped them) each time
	// one completes. Reports whether MaxSteps was reached.
	renderReady := func() (bool, error) {
		for {
			best := -1
			for s, st := range pending {
				if len(st.files) >= filesPerStep && (best < 0 || s < best) {
					best = s
				}
			}
			if best < 0 {
				return false, nil
			}
			st := pending[best]
			n, err := renderFollowStep(db, p, best, st, &maxBlocks)
			if err != nil {
				return false, err
			}
			res.Images += n
			res.Steps++
			logf("step %d (%s): %d images", best, st.stepID, n)
			delete(pending, best)
			for s, old := range pending {
				if s >= best {
					continue
				}
				for f := range old.files {
					if err := db.DeleteUnit(fileUnitName(s, f)); err != nil {
						return false, err
					}
				}
				delete(pending, s)
				res.Skipped++
				logf("step %d: skipped (lagged)", s)
			}
			if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
				return true, nil
			}
		}
	}

	reachedMax := false
	for ev := range sub.Events() {
		res.Events++
		if ev.File+1 > filesPerStep {
			filesPerStep = ev.File + 1
		}
		st := pending[ev.Step]
		if st == nil {
			st = &followStep{stepID: ev.StepID, files: make(map[int]bool)}
			pending[ev.Step] = st
		}
		if st.files[ev.File] {
			continue // duplicate (producer re-sent the file)
		}
		st.files[ev.File] = true
		// The unit starts prefetching now, while the step is still partial.
		if err := db.AddUnit(fileUnitName(ev.Step, ev.File), readFn); err != nil {
			return nil, err
		}
		if !confirmed {
			// Rendering on the learned width alone would fire on the very
			// first file of a fresh stream; hold until a step boundary.
			for s := range pending {
				if s < ev.Step {
					confirmed = true
					break
				}
			}
			if !confirmed {
				continue
			}
		}
		done, err := renderReady()
		if err != nil {
			return nil, err
		}
		if done {
			reachedMax = true
			break
		}
	}
	if !reachedMax {
		// Stream over: pending state is final, so complete steps render even
		// if no later step ever confirmed the width (a one-step stream).
		if _, err := renderReady(); err != nil {
			return nil, err
		}
	}
	res.DB = db.Stats()
	if err := sub.Err(); errors.Is(err, remote.ErrSubscriptionLost) && res.Events == 0 {
		return res, err
	}
	return res, nil
}

// renderFollowStep waits for a completed step's units and runs the
// follower's pipeline over them, then drops the units. It returns the number
// of images the step made.
func renderFollowStep(db *core.DB, p *snapshotPipeline, step int, st *followStep, maxBlocks *int) (int, error) {
	var waited []string
	for f := range st.files {
		u := fileUnitName(step, f)
		if err := db.WaitUnit(u); err != nil {
			// Drop the units already acquired: a partial wait must not
			// leave pins behind when the step is abandoned.
			for _, u := range waited {
				err = errors.Join(err, db.DeleteUnit(u))
			}
			return 0, err
		}
		waited = append(waited, u)
	}
	// Block names: probe upward from the largest count seen so far (blocks
	// are dense, IDs start at 0; a size query for a missing block is cheap).
	for {
		if _, err := db.GetFieldBufferSize(recBlock, "coords",
			genx.BlockID(*maxBlocks), st.stepID); err != nil {
			break
		}
		*maxBlocks++
	}
	names := make([]string, *maxBlocks)
	for b := range names {
		names[b] = genx.BlockID(b)
	}
	src := &gSource{db: db, names: names, stepID: st.stepID}
	p.snapID = fmt.Sprintf("t%04d", step)
	before := p.images
	if err := p.run(src); err != nil {
		err = fmt.Errorf("step %d: %w", step, err)
		for f := range st.files {
			err = errors.Join(err, db.DeleteUnit(fileUnitName(step, f)))
		}
		return 0, err
	}
	for f := range st.files {
		if err := db.DeleteUnit(fileUnitName(step, f)); err != nil {
			return 0, err
		}
	}
	return p.images - before, nil
}
