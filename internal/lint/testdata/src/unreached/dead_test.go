package unreachedfix

// A test reference does not reach Dead.
var _ = Dead()
