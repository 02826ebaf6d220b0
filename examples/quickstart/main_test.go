package main

// Example pins the quickstart's three result lines, the ones README.md
// quotes: a change to any of them is a change to a simulated result.
func Example() {
	main()
	// Output:
	// gshare-16384B: 15649/110915 mispredicted (14.11%)
	// pathcond[fixed(4)]-16384B: 9561/110915 mispredicted (8.62%)
	// pathcond[profiled(957 branches,default 4)]-16384B: 7158/110915 mispredicted (6.45%)
}
