//go:build race

package core

// raceBuild reports a -race build: the detector makes sync.Pool drop a
// quarter of its Puts and allocates shadow state of its own, so allocation
// budgets measured without it do not hold under it.
const raceBuild = true
