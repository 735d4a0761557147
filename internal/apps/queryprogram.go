package apps

// QueryProgramSrc is the paper's §5.1 generic distributed graph-traversal
// program over the prov and ruleExec relations, written out in full: the
// base rule edb1, the child counter c0, the four tuple-vertex rules
// idb1-idb4 from the paper, and the four rule-vertex rules rv1-rv4 that
// the paper omits "due to space constraints", reconstructed symmetrically.
//
// The program is the specification of the querying protocol; the native
// processor in internal/provquery implements exactly this message flow
// (eProvQuery/eRuleQuery with buffered partial results) with the
// f_pEDB/f_pIDB/f_pRULE customization points, and is tested equivalent to
// the paper's examples. Executing the NDlog text directly would require
// non-monotonic buffer updates to pResultTmp, which the paper's prose also
// glosses over; see ARCHITECTURE.md "Dataflow 2: provenance queries".
const QueryProgramSrc = `
// Base case: VID is a base tuple (null RID).
edb1 eProvResults(@Ret,QID,VID,Prov) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID == f_nullid(), Prov = f_pEDB(VID).

// Count the number of children (alternative derivations) per VID.
c0 numChild(@X,VID,COUNT<*>) :- prov(@X,VID,RID,RLoc).

// Initialize the per-query result buffer.
idb1 pResultTmp(@X,QID,Ret,VID,Buf) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(), Buf = f_empty().

// Recursive case: expand each derivation's rule-execution vertex.
idb2 eRuleQuery(@RLoc,RQID,RID,X) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(), RQID = f_sha1(QID + RID).

// Buffer returned sub-results.
idb3 pResultTmp(@X,QID,Ret,VID,Buf) :- eRuleResults(@X,RQID,RID,Prov),
     pResultTmp(@X,QID,Ret,VID,Buf1), RQID == f_sha1(QID + RID),
     Buf = f_concat(Buf1,Prov).

// All children returned: combine and reply.
idb4 eProvResults(@Ret,QID,VID,Prov) :- pResultTmp(@X,QID,Ret,VID,Buf),
     numChild(@X,VID,C), C == f_size(Buf), Prov = f_pIDB(Buf,VID,X).

// Rule-execution vertices (rv1-rv4, symmetric to idb1-idb4): expand the
// input tuples listed in ruleExec and combine with f_pRULE.
rv1 rResultTmp(@X,RQID,Ret,RID,Buf) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExec(@X,RID,R,List), Buf = f_empty().
rv2 eProvQuery(@X,CQID,VID,X) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExec(@X,RID,R,List), VID = f_item(List), CQID = f_sha1(RQID + VID).
rv3 rResultTmp(@X,RQID,Ret,RID,Buf) :- eProvResults(@X,CQID,VID,Prov),
    rResultTmp(@X,RQID,Ret,RID,Buf1), CQID == f_sha1(RQID + VID),
    Buf = f_concat(Buf1,Prov).
rv4 eRuleResults(@Ret,RQID,RID,Prov) :- rResultTmp(@X,RQID,Ret,RID,Buf),
    ruleExec(@X,RID,R,List), f_size(List) == f_size(Buf),
    Prov = f_pRULE(Buf,R,X).
`

// CountQueryProgramSrc is an *executable* instantiation of the §5.1 query
// program for the #DERIVATIONS representation: the f_p* customization
// points are bound to the counting built-ins (f_cntEDB/f_cntIDB/f_cntRULE)
// and the rule-input lists are iterated through the relational
// ruleExecInput rows maintained by the rewrite's RelationalInputs option
// (NDlog assignments bind one value, so VIDList cannot be enumerated in a
// rule body directly).
//
// Two departures from the paper's sketch, both forced by making it
// actually run: (1) the result buffer pResultTmp grows monotonically — the
// paper's in-place buffer update is non-monotonic and has no NDlog
// semantics; partial buffers coexist and idb4's size guard selects the
// complete one. (2) child-query identifiers are f_sha1(f_append(a,b))
// rather than string concatenation (injective framing, as everywhere else
// in this implementation).
const CountQueryProgramSrc = `
// Base case: a null-RID derivation answers immediately.
edb1 eProvResults(@Ret,QID,VID,Prov) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID == f_nullid(), Prov = f_cntEDB(VID).

// Children per tuple vertex and inputs per rule vertex.
c0 numChild(@X,VID,COUNT<*>) :- prov(@X,VID,RID,RLoc).
c1 numInput(@X,RID,COUNT<*>) :- ruleExecInput(@X,RID,VID).

// Tuple vertices: initialize the buffer, expand each derivation.
idb1 pResultTmp(@X,QID,Ret,VID,Buf) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(), Buf = f_empty().
idb2 eRuleQuery(@RLoc,RQID,RID,X) :- eProvQuery(@X,QID,VID,Ret),
     prov(@X,VID,RID,RLoc), RID != f_nullid(),
     RQID = f_sha1(f_append(QID,RID)).
idb3 pResultTmp(@X,QID,Ret,VID,Buf) :- eRuleResults(@X,RQID,RID,Prov),
     pResultTmp(@X,QID,Ret,VID,Buf1), RQID == f_sha1(f_append(QID,RID)),
     Buf = f_concat(Buf1,Prov).
idb4 eProvResults(@Ret,QID,VID,Prov) :- pResultTmp(@X,QID,Ret,VID,Buf),
     numChild(@X,VID,C), C == f_size(Buf), Prov = f_cntIDB(Buf).

// Rule-execution vertices: expand each input tuple (all local, since rule
// bodies are localized), combine with the product.
rv1 rResultTmp(@X,RQID,Ret,RID,Buf) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExec(@X,RID,R,List), Buf = f_empty().
rv2 eProvQuery(@X,CQID,VID,X) :- eRuleQuery(@X,RQID,RID,Ret),
    ruleExecInput(@X,RID,VID), CQID = f_sha1(f_append(RQID,VID)).
rv3 rResultTmp(@X,RQID,Ret,RID,Buf) :- eProvResults(@X,CQID,VID,Prov),
    rResultTmp(@X,RQID,Ret,RID,Buf1), CQID == f_sha1(f_append(RQID,VID)),
    Buf = f_concat(Buf1,Prov).
rv4 eRuleResults(@Ret,RQID,RID,Prov) :- rResultTmp(@X,RQID,Ret,RID,Buf),
    numInput(@X,RID,C), C == f_size(Buf), Prov = f_cntRULE(Buf).

// Materialize root results so callers can read them.
qr queryResult(@Ret,QID,VID,Prov) :- eProvResults(@Ret,QID,VID,Prov).
`

// DFSQueryProgramSrc contains the paper's §6.2 modifications that turn the
// BFS traversal into a DFS with threshold-based early termination: idb2 is
// replaced by idb2a-idb2c and idb4 gains the threshold disjunct (idb4').
const DFSQueryProgramSrc = `
idb2a pQList(@X,QID,AGGLIST<RID,RLoc>) :- eProvQuery(@X,QID,UID,Ret),
      prov(@X,UID,RID,RLoc), RID != f_nullid().

idb2b eIterate(@X,QID,N) :- pResultTmp(@X,QID,Ret,UID,Buf),
      numChild(@X,UID,C), N = f_size(Buf) + 1, N <= C,
      Threshold = f_threshold(), f_pIDB(Buf,UID,X) <= Threshold.

idb2c eRuleQuery(@RLoc,RQID,RID,X) :- eIterate(@X,QID,N),
      pQList(@X,QID,L), RID = f_item(L), RLoc = f_item(L),
      RQID = f_sha1(QID + RID).

idb4p eProvResults(@Ret,QID,UID,Prov) :- pResultTmp(@X,QID,Ret,UID,Buf),
      numChild(@X,UID,C), Prov = f_pIDB(Buf,UID,X),
      C == f_size(Buf) || f_count(Prov) > f_threshold().
`
