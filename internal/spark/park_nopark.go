//go:build !go1.24

package spark

// Without the weak package (Go 1.24) there is no park: Borrow always
// builds a fresh Runner, and nothing is kept between batches. See
// park.go.

func takeParked() *Runner { return nil }

// Park does nothing: nothing is kept between batches.
func Park(*Runner) {}
