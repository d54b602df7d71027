// Package a is cfgflow golden testdata: clients of the harness and the
// engine constructors.
package a

import (
	vcore "vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/harness"
)

func bad(cfg *harness.Config) {
	harness.Run(cfg)         // want `call to harness.Run without a dominating Validate`
	_ = cpu.New(128)         // want `call to cpu.New without a dominating Validate`
	_ = vcore.NewVR()        // want `call to core.NewVR without a dominating Validate`
	_ = vcore.NewPRE()       // want `call to core.NewPRE without a dominating Validate`
	_ = vcore.NewClassicRA() // want `call to core.NewClassicRA without a dominating Validate`
}

func good(cfg *harness.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := harness.Run(cfg); err != nil { // validated above: allowed
		return err
	}
	_ = cpu.New(128)  // validated above: allowed
	_ = vcore.NewVR() // validated above: allowed
	return nil
}

func supervised(cfg *harness.Config) (harness.Result, error) {
	return harness.RunSupervised(cfg) // supervised path: allowed
}

//vrlint:allow cfgflow -- thin forwarder; harness.Run validates on entry
func forward(cfg *harness.Config) (harness.Result, error) {
	return harness.Run(cfg)
}
