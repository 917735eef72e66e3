// Package lib is the reach analyzer's golden fixture: functions and
// methods no non-test code references must be flagged; interface
// methods, //tvdp:surface declarations and functions whose only caller
// is package main must not be.
package lib

import (
	"fmt"
	"sort"
)

// Dead has no caller but itself, and recursion does not count.
func Dead(n int) int { // want "Dead is referenced by no non-test code"
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// UsedByMain's only caller is package main.
func UsedByMain() int { return len(prefix()) }

// prefix is reached through UsedByMain.
func prefix() string { return "lib" }

// byLen satisfies sort.Interface, which SortByLen hands to sort.Sort, so
// its methods are reached through the interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Extra is on a type that satisfies sort.Interface, but no interface in
// the checked code has an Extra method.
func (b byLen) Extra() int { return 0 } // want "(byLen).Extra is referenced by no non-test code"

// count's Len matches sort.Interface's by name, but count has no Less or
// Swap, so it satisfies no interface in the checked code.
type count int

func (c count) Len() int { return int(c) } // want "(count).Len is referenced by no non-test code"

// SortByLen orders s by length.
func SortByLen(s []string) { sort.Sort(byLen(s)) }

// label's String is called by fmt through an any argument.
type label int

func (l label) String() string { return "label" }

// Describe renders a label.
func Describe() string { return fmt.Sprint(label(1)) }

// Client is public API for programs outside the module.
//
//tvdp:surface the fixture's client library
type Client struct{}

// Get is covered by its type's surface mark.
func (c *Client) Get() string { return "" }

// helper is unexported, so the type's surface mark does not cover it.
func (c *Client) helper() {} // want "(Client).helper is referenced by no non-test code"

// NewClient is public API on its own mark.
//
//tvdp:surface the fixture's client constructor
func NewClient() *Client { return &Client{} }

// Unmarked carries a surface mark without a reason, which exempts nothing.
//
//tvdp:surface
func Unmarked() {} // want "surface directive for Unmarked has no reason" // want "Unmarked is referenced by no non-test code"

// Kept is dead but excused inline.
//
//tvdp:nolint reach kept to show that a justified directive suppresses
func Kept() {}
