package diagnosis

import (
	"repro/internal/failurelog"
	"repro/internal/sim"
)

// Test-only access to engine internals for the external oracle tests.

func (d *Engine) SuspectsForTest(log *failurelog.Log) ([]int32, int) { return d.suspects(log) }

func (d *Engine) OptionsForTest() Options { return d.opt }

func (d *Engine) PatternsForTest() *sim.PatternSet { return d.ps }
