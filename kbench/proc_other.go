//go:build !linux

package main

import "syscall"

// childAttr is a no-op where the kernel offers no parent-death signal;
// stop still ends the child on every normal exit path.
func childAttr() *syscall.SysProcAttr { return nil }
