// Command tool is the only caller of lib.UsedByMain, SortByLen and
// Describe.
package main

import (
	"fmt"

	"fixture/reach/internal/lib"
)

func main() {
	s := []string{"bb", "a"}
	lib.SortByLen(s)
	fmt.Println(lib.UsedByMain(), lib.Describe(), s)
}
