//go:build unix

package errbad

import "godiva/internal/core"

// dropOnUnix is compiled only where go build honours the unix constraint
// (linux, darwin and the BSDs), as genx's table_unix_test.go is: the loader
// must lint it there.
func dropOnUnix(db *core.DB) {
	db.DeleteUnit("u") // want errcheck `result of DB.DeleteUnit is discarded (last result is an error)`
}
