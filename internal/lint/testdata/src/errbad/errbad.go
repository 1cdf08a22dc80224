// Package errbad seeds errcheck violations: every discard form the analyzer
// knows about, applied to the godiva core and remote APIs. Every offending
// line carries a // want comment consumed by lint_test.go.
package errbad

import (
	"godiva/internal/core"
	"godiva/internal/push"
	"godiva/internal/remote"
)

func sink(any) {}

func dropStatement(db *core.DB) {
	db.FinishUnit("u") // want errcheck `result of DB.FinishUnit is discarded (last result is an error)`
}

func dropBlankAssign(db *core.DB) {
	_ = db.Close() // want errcheck `error result of DB.Close is discarded with a blank assignment`
}

func dropBlankIdent(db *core.DB) {
	buf, _ := db.GetFieldBuffer("particles", "position") // want errcheck `error result of DB.GetFieldBuffer is discarded with a blank identifier`
	sink(buf)
}

func dropCaptured(db *core.DB) {
	err := db.DeleteUnit("u")
	_ = err // want errcheck `blank assignment of err has no effect`
}

func dropRemote(c *remote.Client, fp *remote.FilePayload) {
	fps, _ := c.FetchFiles([]string{"a.shdf"}, nil) // want errcheck `error result of Client.FetchFiles is discarded with a blank identifier`
	for _, got := range fps {
		got.Recycle()
	}
	c.Ingest("a.shdf", fp)                   // want errcheck `result of Client.Ingest is discarded (last result is an error)`
	c.Subscribe(push.Spec{}, push.Options{}) // want errcheck `result of Client.Subscribe is discarded (last result is an error)`
}

func deferredCloseIsFine(db *core.DB) {
	defer db.Close()
}

func asserted(db *core.DB) error {
	if err := db.WaitUnit("u"); err != nil {
		return err
	}
	return db.FinishUnit("u")
}
