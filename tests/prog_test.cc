// Tests for the prog module: type factories, value trees, flattening,
// serialization round trips, random generation validity, and the
// structural validator.

#include <gtest/gtest.h>

#include <unordered_set>

#include "prog/flatten.h"
#include "prog/gen.h"
#include "prog/serialize.h"
#include "prog/types.h"
#include "prog/validate.h"
#include "prog/value.h"
#include "util/rng.h"

namespace sp::prog {
namespace {

// A small but representative syscall table used across these tests.
SyscallTable
makeTable()
{
    SyscallTable table;

    SyscallDecl open_decl;
    open_decl.name = "open$t";
    open_decl.id = 0;
    open_decl.args.push_back(
        ptrType("path", bufferType("path_buf", 1, 8)));
    open_decl.args.push_back(
        flagsType("flags", {0x1, 0x2, 0x40}, true));
    open_decl.ret_resource = "fd";
    open_decl.finalize();
    table.decls.push_back(std::move(open_decl));

    SyscallDecl read_decl;
    read_decl.name = "read$t";
    read_decl.id = 1;
    read_decl.args.push_back(resourceType("fd", "fd"));
    read_decl.args.push_back(ptrType(
        "req",
        structType("req_s",
                   {intType("mode", 32, 0, 7, {0, 3}),
                    bufferType("data", 0, 16),
                    lenType("data_len", 1),
                    constType("magic", 0xab)})));
    read_decl.finalize();
    table.decls.push_back(std::move(read_decl));

    SyscallDecl plain;
    plain.name = "plain$t";
    plain.id = 2;
    plain.args.push_back(intType("v", 32, 0, 100));
    plain.finalize();
    table.decls.push_back(std::move(plain));

    return table;
}

TEST(Types, SlotCounts)
{
    auto table = makeTable();
    // open$t: ptr(1) + buffer(2) + flags(1) = 4.
    EXPECT_EQ(slotCount(table.decls[0]), 4u);
    // read$t: resource(1) + ptr(1) + int(1) + buffer(2) + len(1) +
    // const(1) = 7.
    EXPECT_EQ(slotCount(table.decls[1]), 7u);
    EXPECT_EQ(slotCount(table.decls[2]), 1u);
}

TEST(Types, ConsumedAndProducibleKinds)
{
    auto table = makeTable();
    EXPECT_TRUE(table.decls[0].consumedResourceKinds().empty());
    auto consumed = table.decls[1].consumedResourceKinds();
    ASSERT_EQ(consumed.size(), 1u);
    EXPECT_EQ(consumed[0], "fd");
    auto producible = table.producibleResourceKinds();
    ASSERT_EQ(producible.size(), 1u);
    EXPECT_EQ(producible[0], "fd");
}

TEST(Types, FindByNameAndId)
{
    auto table = makeTable();
    EXPECT_NE(table.find("read$t"), nullptr);
    EXPECT_EQ(table.find("nope"), nullptr);
    EXPECT_EQ(table.byId(2).name, "plain$t");
}

TEST(Value, DefaultArgsMatchShape)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    fixupLengths(call);
    EXPECT_EQ(call.args.size(), 2u);
    EXPECT_EQ(call.args[0]->result_ref, -1);
    ASSERT_FALSE(call.args[1]->is_null);
    const Arg &req = *call.args[1]->pointee;
    ASSERT_EQ(req.fields.size(), 4u);
    EXPECT_EQ(req.fields[3]->scalar, 0xabu);  // const magic
    EXPECT_EQ(req.fields[2]->scalar, req.fields[1]->bytes.size());
}

TEST(Value, CloneIsDeepAndEqual)
{
    auto table = makeTable();
    Rng rng(3);
    Prog prog = generateProg(rng, table);
    Prog copy;
    copy.calls = prog.calls;  // Call copy-ctor deep-copies
    EXPECT_TRUE(prog.equals(copy));
    EXPECT_EQ(prog.hash(), copy.hash());

    // Mutating the copy must not affect the original.
    if (!copy.calls.empty() && !copy.calls[0].args.empty()) {
        Arg &a = *copy.calls[0].args[0];
        if (a.type->kind == TypeKind::Ptr)
            a.is_null = !a.is_null;
        else
            a.scalar ^= 0xff;
        // Rebuild hash: they should now differ (almost surely).
        EXPECT_FALSE(prog.equals(copy));
    }
}

TEST(Value, FixupLengthsTracksBufferResize)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    Arg &req = *call.args[1]->pointee;
    req.fields[1]->bytes.assign(7, 0x42);
    fixupLengths(call);
    EXPECT_EQ(req.fields[2]->scalar, 7u);
}

TEST(Value, ArgAtPathRoundTrip)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);

    size_t visited = 0;
    visitArgs(call, [&](const Arg &arg,
                        const std::vector<uint16_t> &path) {
        ++visited;
        const Arg &resolved = argAtPath(call, path);
        EXPECT_EQ(&resolved, &arg);
    });
    // resource, ptr, struct, 4 fields = 7 nodes.
    EXPECT_EQ(visited, 7u);
}

TEST(Value, ShiftResultRefsInsertAndRemove)
{
    auto table = makeTable();
    Prog prog;
    Call open_call;
    open_call.decl = &table.decls[0];
    open_call.args = defaultArgs(*open_call.decl);
    prog.calls.push_back(std::move(open_call));

    Call read_call;
    read_call.decl = &table.decls[1];
    read_call.args = defaultArgs(*read_call.decl);
    read_call.args[0]->result_ref = 0;
    prog.calls.push_back(std::move(read_call));

    // Insert at position 0: the ref must shift to 1.
    shiftResultRefs(prog, 0, +1);
    EXPECT_EQ(prog.calls[1].args[0]->result_ref, 1);
    // Remove position 1 (the producer): ref becomes invalid.
    shiftResultRefs(prog, 1, -1);
    EXPECT_EQ(prog.calls[1].args[0]->result_ref, -1);
}

TEST(Flatten, SlotEnumerationStableAndComplete)
{
    auto table = makeTable();
    auto slots = enumerateSlots(table.decls[1]);
    ASSERT_EQ(slots.size(), 7u);
    for (size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i].index, i);
    // Const and Len slots must not be mutable.
    int immutable = 0;
    for (const auto &slot : slots) {
        if (slot.type->kind == TypeKind::Const ||
            slot.type->kind == TypeKind::Len) {
            EXPECT_FALSE(slot.is_mutable);
            ++immutable;
        }
    }
    EXPECT_EQ(immutable, 2);
}

TEST(Flatten, NullPtrKeepsArity)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    const auto full = flattenCall(call, {});
    ASSERT_EQ(full.size(), 7u);

    call.args[1]->is_null = true;
    call.args[1]->pointee.reset();
    const auto nulled = flattenCall(call, {});
    ASSERT_EQ(nulled.size(), 7u);
    EXPECT_EQ(nulled[1], 0u);  // ptr-null slot
    for (size_t i = 2; i < nulled.size(); ++i)
        EXPECT_EQ(nulled[i], 0u);
}

TEST(Flatten, ResourceResolution)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    std::vector<uint64_t> returns(6, 0);
    returns[5] = 777;
    call.args[0]->result_ref = 5;
    auto values = flattenCall(call, returns);
    EXPECT_EQ(values[0], 777u);
    // A ref is valid iff it indexes the table.
    values = flattenCall(call, {returns.data(), 5});
    EXPECT_EQ(values[0], kBadHandle);
    call.args[0]->result_ref = -1;
    values = flattenCall(call, identityReturns(8));
    EXPECT_EQ(values[0], kBadHandle);
    call.args[0]->result_ref = 3;
    values = flattenCall(call, identityReturns(8));
    EXPECT_EQ(values[0], 3u);
}

TEST(Flatten, BufferClassChangesWithContent)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    Arg &buf = *call.args[1]->pointee->fields[1];
    buf.bytes = {1, 2, 3};
    fixupLengths(call);
    const auto v1 = flattenCall(call, {});
    buf.bytes = {9, 9, 9};
    const auto v2 = flattenCall(call, {});
    // Same length slot, (almost surely) different class slot.
    EXPECT_EQ(v1[3], v2[3]);
    EXPECT_NE(v1[4], v2[4]);
}

TEST(Flatten, MutationPointsSkipNullSubtrees)
{
    auto table = makeTable();
    Call call;
    call.decl = &table.decls[1];
    call.args = defaultArgs(*call.decl);
    const auto with_ptr = mutationPoints(call);
    // resource, ptrnull, mode int, buffer = 4 points (const/len skipped).
    EXPECT_EQ(with_ptr.size(), 4u);

    call.args[1]->is_null = true;
    call.args[1]->pointee.reset();
    const auto without = mutationPoints(call);
    // Only resource and the ptr-null toggle remain.
    EXPECT_EQ(without.size(), 2u);
}

TEST(Serialize, RoundTripPreservesProgram)
{
    auto table = makeTable();
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        Prog prog = generateProg(rng, table);
        const std::string text = formatProg(prog);
        auto parsed = parseProg(text, table);
        ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
        EXPECT_TRUE(prog.equals(*parsed.prog)) << text;
        EXPECT_EQ(prog.hash(), parsed.prog->hash());
    }
}

TEST(Serialize, ParseRejectsUnknownSyscall)
{
    auto table = makeTable();
    auto result = parseProg("nosuch(0x1)\n", table);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("unknown syscall"), std::string::npos);
}

TEST(Serialize, ParseRejectsMalformedArg)
{
    auto table = makeTable();
    auto result = parseProg("plain$t(banana)\n", table);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("line 1"), std::string::npos);
}

TEST(Serialize, FormatUsesResourceVariables)
{
    auto table = makeTable();
    Prog prog;
    Call open_call;
    open_call.decl = &table.decls[0];
    open_call.args = defaultArgs(*open_call.decl);
    prog.calls.push_back(std::move(open_call));
    Call read_call;
    read_call.decl = &table.decls[1];
    read_call.args = defaultArgs(*read_call.decl);
    read_call.args[0]->result_ref = 0;
    prog.calls.push_back(std::move(read_call));

    const std::string text = formatProg(prog);
    EXPECT_NE(text.find("r0 = open$t("), std::string::npos);
    EXPECT_NE(text.find("read$t(r0"), std::string::npos);
}

TEST(Gen, GeneratedProgramsValidate)
{
    auto table = makeTable();
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        Prog prog = generateProg(rng, table);
        auto error = validateProg(prog);
        EXPECT_FALSE(error.has_value()) << *error;
        EXPECT_GE(prog.calls.size(), 2u);
        EXPECT_LE(prog.calls.size(), 8u);
    }
}

TEST(Gen, ResourceBindingPrefersProducers)
{
    auto table = makeTable();
    Rng rng(19);
    size_t bound = 0, total = 0;
    for (int i = 0; i < 200; ++i) {
        Prog prog = generateProg(rng, table);
        bool have_producer = false;
        for (const auto &call : prog.calls) {
            if (call.decl->name == "open$t")
                have_producer = true;
            if (call.decl->name == "read$t" && have_producer) {
                ++total;
                bound += (call.args[0]->result_ref >= 0);
            }
        }
    }
    ASSERT_GT(total, 20u);
    EXPECT_GT(static_cast<double>(bound) / static_cast<double>(total),
              0.6);
}

TEST(Gen, CorpusIsUniqueByHash)
{
    auto table = makeTable();
    Rng rng(23);
    auto corpus = generateCorpus(rng, table, 50);
    EXPECT_EQ(corpus.size(), 50u);
    std::unordered_set<uint64_t> hashes;
    for (const auto &prog : corpus)
        EXPECT_TRUE(hashes.insert(prog.hash()).second);
}

TEST(Validate, CatchesForwardResourceRef)
{
    auto table = makeTable();
    Prog prog;
    Call read_call;
    read_call.decl = &table.decls[1];
    read_call.args = defaultArgs(*read_call.decl);
    read_call.args[0]->result_ref = 0;  // refers to itself
    prog.calls.push_back(std::move(read_call));
    EXPECT_TRUE(validateProg(prog).has_value());
}

TEST(Validate, CatchesChangedConst)
{
    auto table = makeTable();
    Prog prog;
    Call read_call;
    read_call.decl = &table.decls[1];
    read_call.args = defaultArgs(*read_call.decl);
    read_call.args[1]->pointee->fields[3]->scalar = 0;  // magic const
    prog.calls.push_back(std::move(read_call));
    auto error = validateProg(prog);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("const"), std::string::npos);
}

TEST(Validate, CatchesStaleLen)
{
    auto table = makeTable();
    Prog prog;
    Call read_call;
    read_call.decl = &table.decls[1];
    read_call.args = defaultArgs(*read_call.decl);
    fixupLengths(read_call);
    read_call.args[1]->pointee->fields[1]->bytes.push_back(0x7);
    prog.calls.push_back(std::move(read_call));
    auto error = validateProg(prog);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("len"), std::string::npos);
}

}  // namespace
}  // namespace sp::prog
