package ckpt

import "os"

// SetSyncFile replaces the file-sync step of every shard write until the
// returned restore runs, so tests outside the package can fail or stall a
// save in flight.
func SetSyncFile(sync func(*os.File) error) (restore func()) {
	orig := syncFile
	syncFile = sync
	return func() { syncFile = orig }
}
