package main

// Example pins the front-end comparison on the default benchmark: the
// three configurations' cycle accounting and the speedups between them.
func Example() {
	main()
	// Output:
	// minimal front end      933098 instrs, 539983 cycles, IPC 1.73, MPKI 26.92 (7712 cond + 17406 ind + 0 ret misses)
	// gshare + pattern       933098 instrs, 521423 cycles, IPC 1.79, MPKI 24.93 (9004 cond + 14258 ind + 0 ret misses)
	// VLP path front end     933098 instrs, 345703 cycles, IPC 2.70, MPKI 6.10 (3318 cond + 2372 ind + 0 ret misses)
	//
	// speedup over minimal: classic 1.036x, path 1.562x
	// speedup of path over classic: 1.508x
}
