#include "textflag.h"

// func Hint(lines []unsafe.Pointer)
TEXT ·Hint(SB), NOSPLIT, $0-24
	MOVQ lines_base+0(FP), SI
	MOVQ lines_len+8(FP), CX
	TESTQ CX, CX
	JZ done
loop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	ADDQ $8, SI
	DECQ CX
	JNZ loop
done:
	RET
