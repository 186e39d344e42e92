package flow

import "fxtaint/crypt"

// LeakDeep sends a Decrypt result that came back through twenty one-line
// wrappers, declared caller-first: call summaries have to be solved
// callee-first (or to a real fixpoint) for the taint to arrive — a fixed
// number of whole-module rounds loses it.
func LeakDeep(sealed []byte) {
	crypt.SendOut(deep01(sealed))
}

func deep01(s []byte) []byte { return deep02(s) }
func deep02(s []byte) []byte { return deep03(s) }
func deep03(s []byte) []byte { return deep04(s) }
func deep04(s []byte) []byte { return deep05(s) }
func deep05(s []byte) []byte { return deep06(s) }
func deep06(s []byte) []byte { return deep07(s) }
func deep07(s []byte) []byte { return deep08(s) }
func deep08(s []byte) []byte { return deep09(s) }
func deep09(s []byte) []byte { return deep10(s) }
func deep10(s []byte) []byte { return deep11(s) }
func deep11(s []byte) []byte { return deep12(s) }
func deep12(s []byte) []byte { return deep13(s) }
func deep13(s []byte) []byte { return deep14(s) }
func deep14(s []byte) []byte { return deep15(s) }
func deep15(s []byte) []byte { return deep16(s) }
func deep16(s []byte) []byte { return deep17(s) }
func deep17(s []byte) []byte { return deep18(s) }
func deep18(s []byte) []byte { return deep19(s) }
func deep19(s []byte) []byte { return deep20(s) }
func deep20(s []byte) []byte { return fetch(s) }
