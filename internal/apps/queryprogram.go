package apps

// QueryProgramSrc is the paper's §5.1 generic distributed graph-traversal
// program over the prov and ruleExec relations, written out in full and
// executable: the base rule edb1, the child counter c0, the tuple-vertex
// rules idb1-idb4, the rule-vertex rules rv1-rv4 that the paper omits "due
// to space constraints", reconstructed symmetrically, and qr, which
// materializes root answers as queryResult(@Ret,QID,VID,Prov) at the issuer.
// Run on top of ndlog.ProvenanceRewrite's output, it computes POLYNOMIAL
// answers through the f_pEDB/f_pIDB/f_pRULE built-ins (engine/expr.go);
// every other representation is an image of those under a semiring
// homomorphism. The native processor in internal/provquery implements the
// same message flow (eProvQuery/eRuleQuery with buffered partial results).
//
// Departures from the paper, each forced by making the text run:
//   - The result buffers pResultTmp and rResultTmp grow monotonically. The
//     paper's in-place buffer update is non-monotonic and has no NDlog
//     semantics; partial buffers coexist, and the size guards of idb4 and
//     rv4 select the complete one.
//   - Child query identifiers are f_sha1(f_append(a,b)), not string "+",
//     so their framing is injective, as everywhere else in this
//     implementation.
//   - An NDlog assignment binds one value, so a rule body cannot enumerate
//     ruleExec's VIDList. in0-in2 unnest it into ruleExecInput(@X,RID,VID)
//     rows, which rv2 joins; rv4 guards on f_size(List) == f_size(Buf) as
//     the paper writes it.
//   - edb1 starts a buffer holding the base literal instead of answering
//     with it, so idb4's f_pIDB wraps a base vertex as the one-kid sum
//     @loc(literal), as the native processor and CentralGraph do, and a
//     vertex with both a base row and rule derivations sums all of them.
//
// A query has no lifetime: answered buffers stay in pResultTmp and
// rResultTmp and fire again when numChild changes, so churn after a query
// re-answers it from stale buffers and need not reach a fixpoint. See
// ARCHITECTURE.md "Dataflow 2: provenance queries".
const QueryProgramSrc = `
// Base case: a null-RID derivation starts a buffer with the base literal.
edb1 pResultTmp(@X,QID,Ret,VID,Buf) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID == f_nullid(), Buf = f_append(f_pEDB(VID,X)).

// Count the number of children (alternative derivations) per VID.
c0 numChild(@X,VID,COUNT<*>) :- prov(@X,VID,RID,RLoc).

// Unnest each rule execution's input list into one row per input.
in0 ruleExecAt(@X,RID,List,I) :- ruleExec(@X,RID,R,List), f_size(List) > 0, I = 0.
in1 ruleExecAt(@X,RID,List,J) :- ruleExecAt(@X,RID,List,I), J = I + 1, J < f_size(List).
in2 ruleExecInput(@X,RID,VID) :- ruleExecAt(@X,RID,List,I), VID = f_nth(List,I).

// Initialize the per-query result buffer.
idb1 pResultTmp(@X,QID,Ret,VID,Buf) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(), Buf = f_empty().

// Recursive case: expand each derivation's rule-execution vertex.
idb2 eRuleQuery(@RLoc,RQID,RID,X) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(),
     RQID = f_sha1(f_append(QID,RID)).

// Buffer returned sub-results.
idb3 pResultTmp(@X,QID,Ret,VID,Buf) :- eRuleResults(@X,RQID,RID,Prov),
     pResultTmp(@X,QID,Ret,VID,Buf1), RQID == f_sha1(f_append(QID,RID)),
     Buf = f_concat(Buf1,Prov).

// All children returned: combine and reply.
idb4 eProvResults(@Ret,QID,VID,Prov) :- pResultTmp(@X,QID,Ret,VID,Buf),
     numChild(@X,VID,C), C == f_size(Buf), Prov = f_pIDB(Buf,VID,X).

// Rule-execution vertices: expand each input tuple (all local, since rule
// bodies are localized) and combine with f_pRULE.
rv1 rResultTmp(@X,RQID,Ret,RID,Buf) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExec(@X,RID,R,List), Buf = f_empty().
rv2 eProvQuery(@X,CQID,VID,X) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExecInput(@X,RID,VID), CQID = f_sha1(f_append(RQID,VID)).
rv3 rResultTmp(@X,RQID,Ret,RID,Buf) :- eProvResults(@X,CQID,VID,Prov),
    rResultTmp(@X,RQID,Ret,RID,Buf1), CQID == f_sha1(f_append(RQID,VID)),
    Buf = f_concat(Buf1,Prov).
rv4 eRuleResults(@Ret,RQID,RID,Prov) :- rResultTmp(@X,RQID,Ret,RID,Buf),
    ruleExec(@X,RID,R,List), f_size(List) == f_size(Buf),
    Prov = f_pRULE(Buf,R,X).

// Materialize root answers so callers can read them.
qr queryResult(@Ret,QID,VID,Prov) :- eProvResults(@Ret,QID,VID,Prov).
`
