// Fixture for deadexport: a package outside internal/ that references part
// of deadexport/internal/lib. Its own exports are never checked.
package user

import "deadexport/internal/lib"

func Run() int { return lib.Used() + lib.Point{X: 1}.X }
