package proxy

// OldPersonalize is the assembly oracle (oldPersonalize), for the
// package's external tests: golden_test.go loads the pages of a core
// storefront, and core imports proxy.
var OldPersonalize = oldPersonalize
