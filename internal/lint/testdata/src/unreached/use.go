package unreachedfix

import "fmt"

func describe(s Shape) string { return fmt.Sprint(Used(), s.Area(), s) }

var _ = describe(Square{N: 2})
