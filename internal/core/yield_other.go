//go:build !linux

package core

// osYield is a no-op where the decode loop has no OS-level yield;
// runtime.Gosched alone follows each step.
func osYield() {}
