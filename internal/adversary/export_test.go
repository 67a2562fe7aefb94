// Test-only exports: hooks the package's tests use to observe the exact
// search's internals.
package adversary

// setNodeBoundCheck makes every bound the exact search computes call f with
// the instance, the node's chosen set, the candidates it may still add, its
// spend and the bound. It returns a function that restores the previous
// hook. Tests must not run in parallel while it is set.
func setNodeBoundCheck(f func(in *instance, set, tail []int, spent, ub float64)) (restore func()) {
	old := nodeBoundHook
	nodeBoundHook = f
	return func() { nodeBoundHook = old }
}
