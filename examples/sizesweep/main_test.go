package main

import "os"

// Example pins the default benchmark's (gcc) size sweep chart: a
// change to any line is a change to a simulated result. The test
// binary's own flags are dropped so main sees no benchmark argument.
func Example() {
	os.Args = os.Args[:1]
	main()
	// Output:
	// gcc: conditional misprediction vs predictor size
	//   # gshare
	//   = fixed length path
	//   * variable length path
	// 15.1 |                                                           #|
	// 14.1 |                                       #                    |
	// 13.1 |#                  #                                        |
	// 12.1 |                                                            |
	// 11.1 |                                                            |
	// 10.1 |                                                            |
	//  9.1 |=                  =                   =                   =|
	//  8.1 |                                                            |
	//  7.1 |                                                            |
	//  6.1 |*                  *                   *                   *|
	//  5.0 |                                                            |
	//  4.0 |                                                            |
	//  3.0 |                                                            |
	//  2.0 |                                                            |
	//  1.0 |                                                            |
	//  0.0 |                                                            |
	//      +------------------------------------------------------------+
	//       1                  4                   16                 64
	//       (Predictor Size (K bytes))
}
