//go:build race

package tensor

// The race detector compiles the Go body with a call around every load,
// which reassigns its registers and with them the operand that comes
// first when two NaNs meet, so NaN payloads are not compared there.
func init() { nanPayloadsCompared = false }
